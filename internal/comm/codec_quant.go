package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedfteds/internal/tensor"
)

// Quantizing codec payloads keep the tensor blob's outer structure — a
// 4-byte little-endian tensor count, then per tensor a u8 rank and
// u32 × rank dims — and replace the f32 data with the codec's element
// encoding: u16 IEEE half floats for float16, or blocks of an f32 scale
// followed by up to int8BlockSize i8 quantized values for int8. Keeping
// the header layout means the byte-level frame spec in DESIGN.md
// describes every codec with one table.

// appendTensorHeader appends t's u8 rank + u32 dims header to buf.
func appendTensorHeader(buf []byte, t *tensor.Tensor) ([]byte, error) {
	shape := t.Shape()
	if len(shape) > 255 {
		return nil, fmt.Errorf("%w: rank %d exceeds wire format limit", ErrProtocol, len(shape))
	}
	buf = append(buf, byte(len(shape)))
	for _, d := range shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	return buf, nil
}

// readTensorHeader parses a u8 rank + u32 dims header from the front of b,
// returning the shape, its volume and the bytes consumed. It enforces the
// same caps as the tensor wire format, the same way: on each dim while it is
// a uint32 and on the product in 64 bits, so a 32-bit peer never sees -1.
func readTensorHeader(b []byte) (shape []int, vol, n int, err error) {
	if len(b) < 1 {
		return nil, 0, 0, fmt.Errorf("%w: missing tensor rank", ErrProtocol)
	}
	rank := int(b[0])
	n = 1
	if len(b) < n+4*rank {
		return nil, 0, n, fmt.Errorf("%w: truncated tensor dims", ErrProtocol)
	}
	shape = make([]int, rank)
	vol64 := uint64(1)
	for i := range shape {
		d := binary.LittleEndian.Uint32(b[n:])
		n += 4
		if vol64 *= uint64(d); d > 1<<28 || vol64 > 1<<28 {
			return nil, 0, n, fmt.Errorf("%w: tensor volume exceeds limit", ErrProtocol)
		}
		shape[i] = int(d)
	}
	return shape, int(vol64), n, nil
}

// readBlobCount parses the 4-byte tensor count every tensor blob leads with.
// A tensor occupies at least its rank byte, so a count beyond the bytes that
// follow is rejected here, before anything is sized from it.
func readBlobCount(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("%w: tensor blob too short", ErrProtocol)
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count > len(b)-4 {
		return 0, fmt.Errorf("%w: %d tensors declared in %d bytes", ErrProtocol, count, len(b)-4)
	}
	return count, nil
}

// shapeIs reports whether t has exactly the given shape. The delta codecs
// hold each declared shape to the broadcast reference with it before sizing
// anything, so a hostile header cannot allocate more than the reference
// already occupies.
func shapeIs(t *tensor.Tensor, shape []int) bool {
	if t.Rank() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// quantRNG is the deterministic stochastic-rounding stream: a Splitmix64
// chain seeded per tensor, yielding 32 fresh bits per element.
type quantRNG struct{ state uint64 }

func newQuantRNG(seed uint64, tensorIndex int) quantRNG {
	return quantRNG{state: tensor.Splitmix64(seed ^ (uint64(tensorIndex)+1)*0x9e3779b97f4a7c15)}
}

func (r *quantRNG) next32() uint32 {
	r.state = tensor.Splitmix64(r.state)
	return uint32(r.state >> 32)
}

// f16FromF32Stoch converts v to an IEEE binary16 with stochastic rounding
// driven by the random bits u: the value rounds to each of its two
// enclosing halves with probability proportional to proximity, so the
// quantization is unbiased in expectation. Overflow clamps to the largest
// finite half (ML states prefer saturation over infinities); values too
// small for even a stochastic promotion flush to signed zero.
func f16FromF32Stoch(v float32, u uint32) uint16 {
	bits := math.Float32bits(v)
	sign := uint16(bits>>16) & 0x8000
	exp := int(bits>>23) & 0xff
	man := bits & 0x7fffff
	if exp == 0xff { // Inf and NaN pass through
		if man != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	e := exp - 112 // re-biased binary16 exponent
	if e >= 0x1f {
		return sign | 0x7bff
	}
	if e > 0 { // normal half: 13 discarded mantissa bits drive the coin
		hm := uint32(e)<<10 + man>>13
		if u&0x1fff < man&0x1fff {
			hm++ // mantissa carry rolls into the exponent
		}
		if hm >= 0x7c00 {
			hm = 0x7bff
		}
		return sign | uint16(hm)
	}
	// Subnormal half: the exact mantissa is (2^23|man) · 2^(e-14).
	shift := uint(14 - e)
	if shift > 32 {
		return sign
	}
	m := man | 0x800000
	var hm uint32
	if shift < 32 {
		hm = m >> shift
	}
	if uint64(u)&(1<<shift-1) < uint64(m)&(1<<shift-1) {
		hm++
	}
	return sign | uint16(hm)
}

// f16ToF32 widens an IEEE binary16 to float32 exactly.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch exp {
	case 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	case 0:
		v := float32(man) * 0x1p-24
		if sign != 0 {
			return -v
		}
		return v
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// float16Codec ships every element as an IEEE half float: exactly half
// the data bytes of identity, no reference needed, stochastic rounding
// keeps the aggregate unbiased.
type float16Codec struct{}

func (float16Codec) Name() string         { return "float16" }
func (float16Codec) NeedsReference() bool { return false }

func (float16Codec) Encode(_, ts []*tensor.Tensor, seed uint64) ([]byte, error) {
	size := 4
	for _, t := range ts {
		size += 1 + 4*len(t.Shape()) + 2*t.Len()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for ti, t := range ts {
		var err error
		if buf, err = appendTensorHeader(buf, t); err != nil {
			return nil, err
		}
		rng := newQuantRNG(seed, ti)
		for _, v := range t.Data() {
			buf = binary.LittleEndian.AppendUint16(buf, f16FromF32Stoch(v, rng.next32()))
		}
	}
	return buf, nil
}

func (float16Codec) Decode(_, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	count, err := readBlobCount(b)
	if err != nil {
		return nil, err
	}
	out := reuseTensorSlice(scratch, count)
	off := 4
	for i := range out {
		shape, vol, n, err := readTensorHeader(b[off:])
		if err != nil {
			return nil, fmt.Errorf("comm: float16 decode tensor %d: %w", i, err)
		}
		off += n
		if len(b) < off+2*vol {
			return nil, fmt.Errorf("%w: float16 tensor %d truncated", ErrProtocol, i)
		}
		out[i] = tensor.Ensure(out[i], shape...)
		data := out[i].Data()
		for j := range data {
			data[j] = f16ToF32(binary.LittleEndian.Uint16(b[off+2*j:]))
		}
		off += 2 * vol
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tensors", ErrProtocol, len(b)-off)
	}
	return out, nil
}

// int8BlockSize is the quantization-group length of the int8 codec: each
// block of up to 64 consecutive elements gets its own absolute-max scale.
// Blockwise scales isolate magnitude outliers — a tensor-wide scale lets
// one large weight coarsen the step for every element, which measurably
// hurts accuracy over many federated rounds — at 4 bytes per 64 elements
// (~6% overhead, keeping the codec comfortably above 3× vs identity).
const int8BlockSize = 64

// int8Codec quantizes each tensor's delta against the broadcast reference
// to signed bytes blockwise: per block of int8BlockSize elements an f32
// scale (block maxabs/127) followed by the i8 quantized values, ~3.8×
// smaller than identity on realistic shapes. Quantizing the delta rather
// than the state is what keeps the noise harmless: one local round moves
// weights by a small fraction of their magnitude, so a step sized to the
// delta is orders of magnitude finer than a step sized to the weights.
// Stochastic rounding, seeded and deterministic, keeps the expectation
// exact. Because the payload is a delta, int8 — like topk — needs the
// reference on both ends and is refused under the buffered asynchronous
// engine; float16 is the async-safe quantizer.
type int8Codec struct{}

func (int8Codec) Name() string         { return "int8" }
func (int8Codec) NeedsReference() bool { return true }

func (int8Codec) Encode(ref, ts []*tensor.Tensor, seed uint64) ([]byte, error) {
	if len(ref) != len(ts) {
		return nil, fmt.Errorf("%w: int8 codec needs the broadcast reference (%d ref tensors for %d state tensors)",
			ErrProtocol, len(ref), len(ts))
	}
	size := 4
	for _, t := range ts {
		blocks := (t.Len() + int8BlockSize - 1) / int8BlockSize
		size += 1 + 4*len(t.Shape()) + 4*blocks + t.Len()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	var delta [int8BlockSize]float32
	for ti, t := range ts {
		if !ref[ti].SameShape(t) {
			return nil, fmt.Errorf("%w: int8 reference tensor %d shape mismatch", ErrProtocol, ti)
		}
		var err error
		if buf, err = appendTensorHeader(buf, t); err != nil {
			return nil, err
		}
		rng := newQuantRNG(seed, ti)
		data, rdata := t.Data(), ref[ti].Data()
		for len(data) > 0 {
			n := min(len(data), int8BlockSize)
			scale := int8BlockDeltas(delta[:n], data[:n], rdata[:n])
			data, rdata = data[n:], rdata[n:]
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
			out := buf[len(buf) : len(buf)+n]
			buf = buf[:len(buf)+n]
			if scale == 0 {
				clear(out)
				continue
			}
			rng.int8Block(out, delta[:n], 1/float64(scale))
		}
	}
	return buf, nil
}

// int8BlockDeltas writes blk - rblk into delta and returns the block's
// scale, maxabs/127 over the deltas. A NaN delta does not count towards the
// maximum, and an Inf delta makes the scale +Inf, which quantizes every
// element of the block to 0. Both are written to delta as 0, so they
// quantize to 0 themselves and int8Block never sees a non-finite value.
// The masks come from the magnitude's bits without a branch: the bits of
// non-negative floats order like their values, with the NaNs above +Inf.
func int8BlockDeltas(delta, blk, rblk []float32) float32 {
	blk, rblk = blk[:len(delta)], rblk[:len(delta)]
	var maxBits uint32
	for j := range delta {
		bits := math.Float32bits(blk[j] - rblk[j])
		abs := bits &^ (1 << 31)
		nan := uint32(int32(0x7f800000-abs) >> 31)       // all ones when abs > +Inf
		nonFinite := uint32(int32(0x7f7fffff-abs) >> 31) // all ones when abs > MaxFloat32
		maxBits = max(maxBits, abs&^nan)
		delta[j] = math.Float32frombits(bits &^ nonFinite)
	}
	return math.Float32frombits(maxBits) / 127
}

// int8Block quantizes one block's finite deltas into out, one draw per
// element in element order: q = delta·inv rounds up from floor(q) when the
// draw u is below t, the fraction q - floor(q) scaled to 2^32. The float64
// difference u - t has the sign of the exact one and is never -0 (x - x is
// +0), so its sign bit is the comparison u < t without a branch. Under a
// subnormal scale |q| can pass 127 but stays below 191, so the int32
// conversion is exact before the clamp to ±127.
func (r *quantRNG) int8Block(out []byte, delta []float32, inv float64) {
	out = out[:len(delta)]
	state := r.state
	for j, d := range delta {
		state = tensor.Splitmix64(state)
		q := float64(d) * inv
		lo := math.Floor(q)
		t := (q - lo) * 4294967296.0
		up := int32(math.Float64bits(float64(uint32(state>>32))-t) >> 63)
		out[j] = byte(int8(min(max(int32(lo)+up, -127), 127)))
	}
	r.state = state
}

func (int8Codec) Decode(ref, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	count, err := readBlobCount(b)
	if err != nil {
		return nil, err
	}
	if len(ref) != count {
		return nil, fmt.Errorf("%w: int8 codec needs the broadcast reference (%d ref tensors for %d payload tensors)",
			ErrProtocol, len(ref), count)
	}
	out := reuseTensorSlice(scratch, count)
	off := 4
	for i := range out {
		shape, vol, n, err := readTensorHeader(b[off:])
		if err != nil {
			return nil, fmt.Errorf("comm: int8 decode tensor %d: %w", i, err)
		}
		off += n
		if !shapeIs(ref[i], shape) {
			return nil, fmt.Errorf("%w: int8 reference tensor %d shape mismatch", ErrProtocol, i)
		}
		blocks := (vol + int8BlockSize - 1) / int8BlockSize
		if len(b) < off+4*blocks+vol {
			return nil, fmt.Errorf("%w: int8 tensor %d truncated", ErrProtocol, i)
		}
		out[i] = tensor.Ensure(out[i], shape...)
		data, rdata := out[i].Data(), ref[i].Data()
		for len(data) > 0 {
			blk, rblk := data, rdata
			if len(blk) > int8BlockSize {
				blk, rblk = blk[:int8BlockSize], rblk[:int8BlockSize]
			}
			data, rdata = data[len(blk):], rdata[len(blk):]
			scale := math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			for j := range blk {
				blk[j] = rblk[j] + scale*float32(int8(b[off+j]))
			}
			off += len(blk)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tensors", ErrProtocol, len(b)-off)
	}
	return out, nil
}
