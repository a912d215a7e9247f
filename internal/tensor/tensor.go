// Package tensor implements dense float32 tensors and the numerical kernels
// used by the neural-network substrate: element-wise arithmetic, reductions,
// a parallel blocked matrix multiply, random fills, and a compact binary
// serialization format used by the communication layer.
//
// Tensors are always contiguous in row-major order. The package favours
// explicit, allocation-conscious APIs: most operations have an in-place or
// destination-passing form so hot training loops can avoid garbage.
package tensor

import (
	"errors"
	"fmt"
)

// ErrShape reports an operation applied to tensors with incompatible shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, contiguous, row-major float32 tensor.
//
// The zero value is an empty tensor. Tensors created by New share no storage
// with their inputs; views created by Reshape and Row share storage with the
// receiver.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a tensor with zero dimensions is a
// scalar with one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(shape)
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// panicNegativeDim reports an invalid shape. It copies the shape before
// boxing it for the panic message so that New's and Ensure's shape parameter
// does not leak — otherwise every variadic call site would heap-allocate its
// shape slice, breaking the zero-allocation hot path.
//
//go:noinline
func panicNegativeDim(shape []int) {
	panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
}

// Ensure returns a tensor with exactly the given shape, reusing t's storage
// when its capacity suffices and allocating a fresh tensor otherwise. The
// returned tensor's contents are unspecified; callers that need zeros must
// call Zero. Ensure is the workhorse of the layer workspace caches: in steady
// state (shapes stable across training steps) it never allocates.
//
// t may be nil. When storage is reused the returned tensor is t itself with
// its shape rewritten, so any views previously derived from t are invalidated.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(shape)
		}
		n *= d
	}
	if t == nil || cap(t.data) < n {
		return New(shape...)
	}
	t.data = t.data[:n]
	if len(t.shape) == len(shape) {
		copy(t.shape, shape)
	} else {
		s := make([]int, len(shape))
		copy(s, shape)
		t.shape = s
	}
	return t
}

// FromSlice returns a tensor with the given shape whose storage is a copy of
// data. It returns an error if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("%w: negative dimension in %v", ErrShape, shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: shape %v needs %d elements, got %d", ErrShape, shape, n, len(data))
	}
	t := New(shape...)
	copy(t.data, data)
	return t, nil
}

// MustFromSlice is FromSlice that panics on error. Intended for tests and
// literals with statically known shapes.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice is a copy.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; callers at
// package boundaries should copy (see Clone).
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. The shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) error {
	if len(t.data) != len(src.data) {
		return fmt.Errorf("%w: copy %v into %v", ErrShape, src.shape, t.shape)
	}
	copy(t.data, src.data)
	return nil
}

// Reshape returns a view of t with a new shape of equal volume. The view
// shares storage with t.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: reshape %v to %v", ErrShape, t.shape, shape)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// MustReshape is Reshape that panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	v, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return v
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Row returns a view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{cols}, data: t.data[i*cols : (i+1)*cols]}
}

// Slice returns a view of rows [lo, hi) along the first dimension.
func (t *Tensor) Slice(lo, hi int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: Slice on scalar")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: slice [%d,%d) out of range for shape %v", lo, hi, t.shape))
	}
	stride := 1
	for _, d := range t.shape[1:] {
		stride *= d
	}
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	s[0] = hi - lo
	return &Tensor{shape: s, data: t.data[lo*stride : hi*stride]}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	clear(t.data)
}

// String renders a short human-readable description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

// IsFinite reports whether all elements are finite (no NaN or Inf). The
// distributed fold runs it over every update it receives.
func (t *Tensor) IsFinite() bool { return isFiniteGo(t.data, isFiniteVec(t.data)) }

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
