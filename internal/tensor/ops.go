package tensor

import (
	"fmt"
	"math"
)

// Add computes t += o element-wise.
func (t *Tensor) Add(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: add %v to %v", ErrShape, o.shape, t.shape)
	}
	addGo(t.data, o.data, addVec(t.data, o.data))
	return nil
}

// Sub computes t -= o element-wise.
func (t *Tensor) Sub(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: sub %v from %v", ErrShape, o.shape, t.shape)
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// Scale computes t *= a.
func (t *Tensor) Scale(a float32) {
	scaleFromGo(t.data, t.data, a, scaleFromVec(t.data, t.data, a))
}

// ScaleFrom sets t = x*a element-wise, overwriting t. The multiplication
// order matches Scale applied to a copy of x, so the result is bit-identical
// to Clone-then-Scale without the allocation.
func (t *Tensor) ScaleFrom(a float32, x *Tensor) error {
	if len(t.data) != len(x.data) {
		return fmt.Errorf("%w: scale %v into %v", ErrShape, x.shape, t.shape)
	}
	scaleFromGo(t.data, x.data, a, scaleFromVec(t.data, x.data, a))
	return nil
}

// AddScalar computes t += a element-wise.
func (t *Tensor) AddScalar(a float32) {
	for i := range t.data {
		t.data[i] += a
	}
}

// Axpy computes t += a*x element-wise.
func (t *Tensor) Axpy(a float32, x *Tensor) error {
	if len(t.data) != len(x.data) {
		return fmt.Errorf("%w: axpy %v into %v", ErrShape, x.shape, t.shape)
	}
	axpyGo(t.data, x.data, a, axpyVec(t.data, x.data, a))
	return nil
}

// Sum returns the sum of all elements, accumulated in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AddRowVector adds vector v (length C) to every row of a (N, C) tensor.
func (t *Tensor) AddRowVector(v *Tensor) error {
	if len(t.shape) != 2 {
		return fmt.Errorf("%w: AddRowVector on rank-%d tensor", ErrShape, len(t.shape))
	}
	if len(v.data) != t.shape[1] {
		return fmt.Errorf("%w: row vector %v for matrix %v", ErrShape, v.shape, t.shape)
	}
	addRowGo(t.data, v.data, addRowVec(t.data, v.data))
	return nil
}

// SumRowsAdd adds the column-wise sum of a (N, C) tensor to dst (length C):
// each column's sum is formed from +0 down the rows and added to dst once,
// so the result is a sum into a workspace followed by Tensor.Add, bit for
// bit, without the workspace.
func (t *Tensor) SumRowsAdd(dst *Tensor) error {
	if len(t.shape) != 2 {
		return fmt.Errorf("%w: SumRowsAdd on rank-%d tensor", ErrShape, len(t.shape))
	}
	if len(dst.data) != t.shape[1] {
		return fmt.Errorf("%w: dst %v for matrix %v", ErrShape, dst.shape, t.shape)
	}
	sumRowsGo(dst.data, t.data, sumRowsVec(dst.data, t.data))
	return nil
}

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and element-wise
// absolute differences no greater than tol.
func (t *Tensor) AllClose(o *Tensor, tol float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		d := v - o.data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}
