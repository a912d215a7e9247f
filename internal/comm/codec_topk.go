package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"fedfteds/internal/tensor"
)

// topKCodec ships, per tensor, only the k = ceil(frac·volume) largest-
// magnitude entries of the delta against the broadcast reference, as
// (u32 index, f32 value) pairs; rank-0/1 tensors (biases, norm running
// statistics) ship their full delta instead — see topkKeep. What it
// drops is not lost: the unsent
// delta mass is carried as a client-side error-feedback residual and
// added back into the next round's delta, so every gradient contribution
// eventually reaches the server — the standard trick that lets aggressive
// sparsification converge like dense updates.
//
// Because the payload is a delta, both Encode and Decode need the
// broadcast state (NeedsReference reports true), which is exactly why
// topk is refused under the buffered asynchronous engine: a stale
// update's reference version is gone by the time it folds.
type topKCodec struct {
	frac float64
	name string           // canonical spec, "topk:<frac>", formatted once at ParseCodec
	res  []*tensor.Tensor // error-feedback residuals, parallel to ts
	idx  []int32          // selection scratch, reused across tensors
	d    []float32        // dense delta scratch, reused across tensors
}

func (c *topKCodec) Name() string         { return c.name }
func (c *topKCodec) NeedsReference() bool { return true }

// ResidualState returns the carried error-feedback residuals (nil before
// the first Encode). Implements ResidualCarrier.
func (c *topKCodec) ResidualState() []*tensor.Tensor { return c.res }

// RestoreResidualState replaces the carried residuals, taking ownership.
// Implements ResidualCarrier.
func (c *topKCodec) RestoreResidualState(ts []*tensor.Tensor) error {
	c.res = ts
	return nil
}

// ensureResiduals (re)builds the residual list to match ts, preserving
// carried state when shapes line up and resetting to zeros when they do
// not (a tier-mask change altered which tensors the client ships).
func (c *topKCodec) ensureResiduals(ts []*tensor.Tensor) {
	match := len(c.res) == len(ts)
	for i := 0; match && i < len(ts); i++ {
		match = c.res[i] != nil && c.res[i].SameShape(ts[i])
	}
	if match {
		return
	}
	c.res = make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		c.res[i] = tensor.New(t.Shape()...)
	}
}

func (c *topKCodec) Encode(ref, ts []*tensor.Tensor, _ uint64) ([]byte, error) {
	if len(ref) != len(ts) {
		return nil, fmt.Errorf("%w: topk codec needs the broadcast reference (%d ref tensors for %d state tensors)",
			ErrProtocol, len(ref), len(ts))
	}
	c.ensureResiduals(ts)
	size := 4
	for _, t := range ts {
		size += 1 + 4*len(t.Shape()) + 4 + 8*topkKeep(c.frac, t)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for ti, t := range ts {
		if !ref[ti].SameShape(t) {
			return nil, fmt.Errorf("%w: topk reference tensor %d shape mismatch", ErrProtocol, ti)
		}
		var err error
		if buf, err = appendTensorHeader(buf, t); err != nil {
			return nil, err
		}
		vol := t.Len()
		if cap(c.d) < vol {
			c.d = make([]float32, vol)
		}
		d := c.d[:vol]
		x, r, e := t.Data(), ref[ti].Data(), c.res[ti].Data()
		for j := range d {
			d[j] = x[j] - r[j] + e[j]
		}
		k := topkKeep(c.frac, t)
		if cap(c.idx) < vol {
			c.idx = make([]int32, vol)
		}
		idx := c.idx[:vol]
		for j := range idx {
			idx[j] = int32(j)
		}
		if k < vol {
			selectTopK(d, idx, k)
		}
		sel := idx[:k]
		sort.Slice(sel, func(a, b int) bool { return sel[a] < sel[b] })
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
		for _, j := range sel {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(d[j]))
		}
		// The residual keeps exactly the delta mass the payload dropped.
		copy(e, d)
		for _, j := range sel {
			e[j] = 0
		}
	}
	return buf, nil
}

func (c *topKCodec) Decode(ref, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	count, err := readBlobCount(b)
	if err != nil {
		return nil, err
	}
	if len(ref) != count {
		return nil, fmt.Errorf("%w: topk codec needs the broadcast reference (%d ref tensors for %d payload tensors)",
			ErrProtocol, len(ref), count)
	}
	out := reuseTensorSlice(scratch, count)
	off := 4
	for i := range out {
		dims, vol, n, err := readTensorHeader(b[off:])
		if err != nil {
			return nil, fmt.Errorf("comm: topk decode tensor %d: %w", i, err)
		}
		off += n
		// k = 0 is legal, so nothing but the reference ties the declared
		// volume to the payload: hold the shape to it before sizing anything.
		if !headerShapeIs(ref[i], dims) {
			return nil, fmt.Errorf("%w: topk reference tensor %d shape mismatch", ErrProtocol, i)
		}
		if len(b) < off+4 {
			return nil, fmt.Errorf("%w: topk tensor %d truncated", ErrProtocol, i)
		}
		k := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if k > vol {
			return nil, fmt.Errorf("%w: topk tensor %d keeps %d of %d entries", ErrProtocol, i, k, vol)
		}
		if len(b) < off+8*k {
			return nil, fmt.Errorf("%w: topk tensor %d truncated", ErrProtocol, i)
		}
		out[i] = ensureHeaderShape(out[i], dims)
		if err := out[i].CopyFrom(ref[i]); err != nil {
			return nil, err
		}
		data := out[i].Data()
		for e := 0; e < k; e++ {
			j := int(binary.LittleEndian.Uint32(b[off:]))
			v := math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:]))
			off += 8
			if j >= vol {
				return nil, fmt.Errorf("%w: topk tensor %d index %d out of range", ErrProtocol, i, j)
			}
			data[j] += v
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tensors", ErrProtocol, len(b)-off)
	}
	return out, nil
}

// selectTopK partially orders idx so its first k entries index the k
// largest-magnitude values of d. The ordering is a strict total order —
// magnitude descending, index ascending on ties — so the selected SET is
// uniquely determined and the payload deterministic no matter how the
// partitions fall. Iterative quickselect with a middle pivot: O(vol)
// expected, against the O(vol·log vol) of sorting everything.
func selectTopK(d []float32, idx []int32, k int) {
	greater := func(a, b int32) bool {
		da := math.Abs(float64(d[a]))
		db := math.Abs(float64(d[b]))
		if da != db {
			return da > db
		}
		return a < b
	}
	lo, hi := 0, len(idx)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		idx[mid], idx[hi] = idx[hi], idx[mid]
		pivot := idx[hi]
		store := lo
		for i := lo; i < hi; i++ {
			if greater(idx[i], pivot) {
				idx[i], idx[store] = idx[store], idx[i]
				store++
			}
		}
		idx[store], idx[hi] = idx[hi], idx[store]
		if store == k-1 {
			return
		}
		if store > k-1 {
			hi = store - 1
		} else {
			lo = store + 1
		}
	}
}

// topkKeep is the kept-entry count for one tensor. Rank-0/1 tensors —
// biases and the norm layers' running statistics — ship dense (k = vol):
// they are a sliver of the byte budget next to the weight matrices, and
// sparsifying running statistics is actively harmful, because the delayed
// error-feedback jumps can drive an aggregated running variance negative.
// Everything else keeps ceil(frac·vol) entries.
func topkKeep(frac float64, t *tensor.Tensor) int {
	vol := t.Len()
	if len(t.Shape()) <= 1 {
		return vol
	}
	return topkCount(frac, vol)
}

// topkCount is the kept-entry count for a tensor volume: ceil(frac·vol),
// at least one so every tensor makes progress.
func topkCount(frac float64, vol int) int {
	if vol == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(vol)))
	if k < 1 {
		k = 1
	}
	if k > vol {
		k = vol
	}
	return k
}
