package nn

import (
	"math"

	"fedfteds/internal/tensor"
)

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
// (N, C) into a new tensor: p_j = exp(z_j/ρ) / Σ_k exp(z_k/ρ).
//
// Temperature ρ < 1 "hardens" the distribution (paper Eq. 6); ρ > 1 softens
// it as in knowledge distillation. ρ must be positive.
func Softmax(logits *tensor.Tensor, temperature float64) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic(shapeErr("softmax", "rank 2", logits.Shape()))
	}
	if temperature <= 0 {
		panic("nn: softmax temperature must be positive")
	}
	n, c := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, c)
	for i := 0; i < n; i++ {
		row := logits.Data()[i*c : (i+1)*c]
		dst := out.Data()[i*c : (i+1)*c]
		softmaxRow(dst, row, temperature)
	}
	return out
}

// softmaxRow writes the numerically stable temperature softmax of src into
// dst.
func softmaxRow(dst, src []float32, temperature float64) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(float64(v-maxv) / temperature)
		dst[j] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

// LogSoftmaxRow writes the numerically stable log-softmax of src into dst
// (temperature 1).
func LogSoftmaxRow(dst, src []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range src {
		sum += math.Exp(float64(v - maxv))
	}
	lse := float32(math.Log(sum)) + maxv
	for j, v := range src {
		dst[j] = v - lse
	}
}
