package nn

import "fedfteds/internal/tensor"

// ReLU is the rectified linear activation, applied element-wise. It has one
// value rule in both modes — y = 0 where x < 0, else x — so NaN and -0 pass
// through unchanged: a diverged activation reaches the loss instead of being
// zeroed, and a frozen ReLU returns the same bits whether it is scored,
// trained through or evaluated. Both passes are lane selects on the float's
// bits (tensor.ReLU, tensor.ReLUGrad), because the sign of an activation is
// a coin flip to a branch predictor.
type ReLU struct {
	base

	// Cached workspaces, reused across steps (see the package aliasing rule).
	// Backward reads y for the gradient mask (y > 0): no layer mutates its
	// input, so y is intact until this layer's next Forward.
	y, dx *tensor.Tensor
	shape []int
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU {
	return &ReLU{base: base{name: name}}
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.shape = captureShape(r.shape, x)
	r.y = tensor.Ensure(r.y, r.shape...)
	tensor.ReLU(r.y.Data(), x.Data())
	return r.y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	if r.y == nil || r.y.Len() != dy.Len() {
		panic("nn: relu " + r.name + ": Backward without Forward")
	}
	r.dx = tensor.Ensure(r.dx, r.shape...)
	tensor.ReLUGrad(r.dx.Data(), dy.Data(), r.y.Data())
	return r.dx
}

// OutputShape implements Layer.
func (r *ReLU) OutputShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// FLOPsPerSample implements Layer.
func (r *ReLU) FLOPsPerSample(in []int) int64 { return int64(tensor.Volume(in)) }

// Softmax computes the temperature-scaled softmax of each row of logits
// (N, C) into a new tensor: p_j = exp(z_j/ρ) / Σ_k exp(z_k/ρ), through
// tensor.SoftmaxRows.
//
// Temperature ρ < 1 "hardens" the distribution (paper Eq. 6); ρ > 1 softens
// it as in knowledge distillation. ρ must be positive.
func Softmax(logits *tensor.Tensor, temperature float64) *tensor.Tensor {
	return SoftmaxInto(&tensor.SoftmaxScratch{}, nil, logits, temperature)
}

// SoftmaxInto is Softmax computing into out, grown by tensor.Ensure and
// returned, with ws's workspace: a scoring loop that passes back the
// returned tensor and one scratch allocates nothing per batch.
func SoftmaxInto(ws *tensor.SoftmaxScratch, out, logits *tensor.Tensor, temperature float64) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic(shapeErr("softmax", "rank 2", logits.Shape()))
	}
	if temperature <= 0 {
		panic("nn: softmax temperature must be positive")
	}
	out = tensor.Ensure(out, logits.Dim(0), logits.Dim(1))
	tensor.SoftmaxRows(ws, out.Data(), logits.Data(), logits.Dim(1), temperature)
	return out
}
