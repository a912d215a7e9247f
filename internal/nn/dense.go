package nn

import (
	"fmt"
	"math/rand"

	"fedfteds/internal/tensor"
)

// Dense is a fully connected layer computing y = x Wᵀ + b for x of shape
// (N, in) and W of shape (out, in).
type Dense struct {
	base
	in, out int
	weight  *Param
	bias    *Param

	x *tensor.Tensor // cached input for backward (owned by the upstream layer)

	// Cached workspaces, reused across steps (see the package aliasing rule).
	y, dx *tensor.Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a dense layer with He-normal weight initialization and
// zero bias. A nil rng skips the initialization and leaves the weights zero,
// for a caller that is about to overwrite them (models.Clone).
func NewDense(name string, in, out int, rng *rand.Rand) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense %q: invalid dims in=%d out=%d", name, in, out)
	}
	w := tensor.New(out, in)
	if rng != nil {
		w.FillKaiming(rng, in)
	}
	b := tensor.New(out)
	return &Dense{
		base:   base{name: name},
		in:     in,
		out:    out,
		weight: &Param{Name: "weight", W: w},
		bias:   &Param{Name: "bias", W: b},
	}, nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.in {
		panic(shapeErr("dense "+d.name, []int{-1, d.in}, x.Shape()))
	}
	n := x.Dim(0)
	d.y = tensor.Ensure(d.y, n, d.out)
	if err := tensor.MatMulTransB(d.y, x, d.weight.W); err != nil {
		panic(err)
	}
	if err := d.y.AddRowVector(d.bias.W); err != nil {
		panic(err)
	}
	if train && !d.frozen {
		d.x = x
	} else {
		d.x = nil
	}
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if dy.Rank() != 2 || dy.Dim(1) != d.out {
		panic(shapeErr("dense "+d.name+" backward", []int{-1, d.out}, dy.Shape()))
	}
	if !d.frozen {
		if d.x == nil {
			panic("nn: dense " + d.name + ": Backward without train Forward")
		}
		// dW += dyᵀ x ; db += column sums of dy, both straight into G.
		if err := tensor.MatMulTransAAdd(d.weight.Grad(), dy, d.x); err != nil {
			panic(err)
		}
		if err := dy.SumRowsAdd(d.bias.Grad()); err != nil {
			panic(err)
		}
	}
	if !needDx {
		return nil
	}
	d.dx = tensor.Ensure(d.dx, dy.Dim(0), d.in)
	if err := tensor.MatMul(d.dx, dy, d.weight.W); err != nil {
		panic(err)
	}
	return d.dx
}

// OutputShape implements Layer.
func (d *Dense) OutputShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.in {
		return nil, fmt.Errorf("nn: dense %q: input shape %v, want [%d]", d.name, in, d.in)
	}
	return []int{d.out}, nil
}

// FLOPsPerSample implements Layer: one multiply-add per weight.
func (d *Dense) FLOPsPerSample(in []int) int64 {
	return 2 * int64(d.in) * int64(d.out)
}
