// Package data provides the dataset substrate: in-memory labeled datasets,
// batching, splits, and the synthetic domain family that stands in for the
// paper's CIFAR-10 / CIFAR-100 / Small-ImageNet / Google-Speech-Commands
// corpora (see DESIGN.md for the substitution argument).
package data

import (
	"errors"
	"fmt"
	"math/rand"

	"fedfteds/internal/tensor"
)

// ErrData reports an invalid dataset operation.
var ErrData = errors.New("data: invalid dataset")

// Dataset is an in-memory labeled dataset. X is batch-first; Y holds class
// labels in [0, NumClasses).
type Dataset struct {
	// X holds the features, shape (N, ...).
	X *tensor.Tensor
	// Y holds the integer class labels, length N.
	Y []int
	// NumClasses is the label-space size.
	NumClasses int
}

// NewDataset validates and wraps features and labels.
func NewDataset(x *tensor.Tensor, y []int, numClasses int) (*Dataset, error) {
	if x.Rank() < 2 {
		return nil, fmt.Errorf("%w: features rank %d, want >= 2", ErrData, x.Rank())
	}
	if x.Dim(0) != len(y) {
		return nil, fmt.Errorf("%w: %d samples vs %d labels", ErrData, x.Dim(0), len(y))
	}
	if numClasses <= 1 {
		return nil, fmt.Errorf("%w: %d classes", ErrData, numClasses)
	}
	for i, c := range y {
		if c < 0 || c >= numClasses {
			return nil, fmt.Errorf("%w: label %d at index %d outside [0,%d)", ErrData, c, i, numClasses)
		}
	}
	return &Dataset{X: x, Y: y, NumClasses: numClasses}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// SampleShape returns the per-sample feature shape.
func (d *Dataset) SampleShape() []int { return d.X.Shape()[1:] }

// Subset returns a new dataset holding copies of the samples at indices.
func (d *Dataset) Subset(indices []int) (*Dataset, error) {
	shape := d.X.Shape()
	stride := 1
	for _, dim := range shape[1:] {
		stride *= dim
	}
	outShape := append([]int{len(indices)}, shape[1:]...)
	x := tensor.New(outShape...)
	y := make([]int, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			return nil, fmt.Errorf("%w: index %d outside [0,%d)", ErrData, idx, d.Len())
		}
		copy(x.Data()[i*stride:(i+1)*stride], d.X.Data()[idx*stride:(idx+1)*stride])
		y[i] = d.Y[idx]
	}
	return &Dataset{X: x, Y: y, NumClasses: d.NumClasses}, nil
}

// Split partitions the dataset into a leading portion of n samples and the
// remainder, without copying labels order (no shuffle; shuffle first if
// needed).
func (d *Dataset) Split(n int) (*Dataset, *Dataset, error) {
	if n < 0 || n > d.Len() {
		return nil, nil, fmt.Errorf("%w: split %d of %d", ErrData, n, d.Len())
	}
	head := &Dataset{X: d.X.Slice(0, n), Y: d.Y[:n], NumClasses: d.NumClasses}
	tail := &Dataset{X: d.X.Slice(n, d.Len()), Y: d.Y[n:], NumClasses: d.NumClasses}
	return head, tail, nil
}

// Shuffled returns a copy of the dataset with samples permuted by rng.
func (d *Dataset) Shuffled(rng *rand.Rand) (*Dataset, error) {
	perm := rng.Perm(d.Len())
	return d.Subset(perm)
}

// ClassHistogram returns per-class sample counts.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.NumClasses)
	for _, c := range d.Y {
		h[c]++
	}
	return h
}

// Batch is one minibatch of features and labels.
type Batch struct {
	// X holds the batch features (B, ...).
	X *tensor.Tensor
	// Y holds the batch labels, length B.
	Y []int
}

// Batches splits the dataset into minibatches of at most size samples, in
// order. If rng is non-nil the sample order is shuffled first and each batch
// holds copies; with a nil rng the batches are contiguous views sharing
// storage with the dataset (callers must not mutate them), which makes the
// scoring and evaluation passes copy-free.
func (d *Dataset) Batches(size int, rng *rand.Rand) ([]Batch, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: batch size %d", ErrData, size)
	}
	n := d.Len()
	batches := make([]Batch, 0, (n+size-1)/size)
	if rng == nil {
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			batches = append(batches, Batch{X: d.X.Slice(lo, hi), Y: d.Y[lo:hi]})
		}
		return batches, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for lo := 0; lo < len(order); lo += size {
		hi := lo + size
		if hi > len(order) {
			hi = len(order)
		}
		sub, err := d.Subset(order[lo:hi])
		if err != nil {
			return nil, err
		}
		batches = append(batches, Batch{X: sub.X, Y: sub.Y})
	}
	return batches, nil
}

// BatchIter streams shuffled minibatches of a dataset (optionally restricted
// to a subset of indices) while reusing two buffers — one features tensor and
// one label slice — instead of materializing every epoch's batches as fresh
// copies. The batch composition and order are exactly those of
// Subset(indices) followed by Batches(size, rng).
//
// The Batch returned by Next aliases the iterator's buffers: it is valid
// until the next Next or Reset call. An iterator is not safe for concurrent
// use, and Reset must be called before the first Next.
type BatchIter struct {
	ds      *Dataset
	indices []int // nil means the whole dataset
	size    int
	order   []int
	pos     int
	stride  int
	x       *tensor.Tensor
	y       []int
	shape   []int
}

// NewBatchIter constructs an iterator over ds restricted to indices (nil for
// the whole dataset) with the given batch size. The indices slice is
// borrowed, not copied.
func NewBatchIter(ds *Dataset, indices []int, size int) (*BatchIter, error) {
	it := &BatchIter{}
	if err := it.Bind(ds, indices, size); err != nil {
		return nil, err
	}
	return it, nil
}

// Bind repoints the iterator at a new dataset/subset, reusing its buffers.
// This is how a pooled client replica hops between clients without
// reallocating.
func (it *BatchIter) Bind(ds *Dataset, indices []int, size int) error {
	if size <= 0 {
		return fmt.Errorf("%w: batch size %d", ErrData, size)
	}
	n := ds.Len()
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return fmt.Errorf("%w: index %d outside [0,%d)", ErrData, idx, n)
		}
	}
	it.ds = ds
	it.indices = indices
	it.size = size
	it.stride = 1
	it.shape = append(it.shape[:0], 0)
	for d := 1; d < ds.X.Rank(); d++ {
		it.stride *= ds.X.Dim(d)
		it.shape = append(it.shape, ds.X.Dim(d))
	}
	m := n
	if indices != nil {
		m = len(indices)
	}
	if cap(it.order) < m {
		it.order = make([]int, m)
	}
	it.order = it.order[:m]
	it.pos = m // exhausted until Reset
	return nil
}

// Len returns the number of samples the iterator covers per epoch.
func (it *BatchIter) Len() int { return len(it.order) }

// Reset rewinds the iterator for a new epoch. If rng is non-nil the sample
// order is reshuffled exactly as Batches would (one rng.Shuffle call);
// otherwise the order is sequential.
func (it *BatchIter) Reset(rng *rand.Rand) {
	for i := range it.order {
		it.order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(it.order), func(i, j int) { it.order[i], it.order[j] = it.order[j], it.order[i] })
	}
	it.pos = 0
}

// Next gathers the next minibatch into the iterator's reused buffers. The
// returned Batch is valid until the next Next or Reset call; ok is false when
// the epoch is exhausted.
func (it *BatchIter) Next() (b Batch, ok bool) {
	if it.pos >= len(it.order) {
		return Batch{}, false
	}
	hi := it.pos + it.size
	if hi > len(it.order) {
		hi = len(it.order)
	}
	bn := hi - it.pos
	it.shape[0] = bn
	it.x = tensor.Ensure(it.x, it.shape...)
	if cap(it.y) < bn {
		it.y = make([]int, it.size)
	}
	it.y = it.y[:bn]
	xd, src := it.x.Data(), it.ds.X.Data()
	for r := 0; r < bn; r++ {
		idx := it.order[it.pos+r]
		if it.indices != nil {
			idx = it.indices[idx]
		}
		copy(xd[r*it.stride:(r+1)*it.stride], src[idx*it.stride:(idx+1)*it.stride])
		it.y[r] = it.ds.Y[idx]
	}
	it.pos = hi
	return Batch{X: it.x, Y: it.y}, true
}

// Concat concatenates datasets with identical sample shapes and class counts.
func Concat(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: concat of nothing", ErrData)
	}
	total := 0
	shape := parts[0].SampleShape()
	nc := parts[0].NumClasses
	for _, p := range parts {
		if p.NumClasses != nc {
			return nil, fmt.Errorf("%w: class count mismatch %d vs %d", ErrData, p.NumClasses, nc)
		}
		ps := p.SampleShape()
		if len(ps) != len(shape) {
			return nil, fmt.Errorf("%w: sample shape mismatch %v vs %v", ErrData, ps, shape)
		}
		for i := range ps {
			if ps[i] != shape[i] {
				return nil, fmt.Errorf("%w: sample shape mismatch %v vs %v", ErrData, ps, shape)
			}
		}
		total += p.Len()
	}
	outShape := append([]int{total}, shape...)
	x := tensor.New(outShape...)
	y := make([]int, 0, total)
	off := 0
	for _, p := range parts {
		copy(x.Data()[off:], p.X.Data())
		off += p.X.Len()
		y = append(y, p.Y...)
	}
	return &Dataset{X: x, Y: y, NumClasses: nc}, nil
}
