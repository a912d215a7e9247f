// Package nn implements a layer-based neural-network substrate with explicit
// forward and backward passes: dense and convolutional layers, batch
// normalization, activations, pooling, a temperature-scaled softmax
// cross-entropy loss, and a Sequential container with per-layer freezing and
// FLOP accounting.
//
// Design notes:
//
//   - Layers cache activations between Forward and Backward; a layer instance
//     is NOT safe for concurrent use. In the federated simulator every client
//     trains on its own clone (or pooled replica) of the model.
//   - Aliasing rule: tensors returned by Forward and Backward are workspaces
//     owned by the layer, reused across calls. A returned tensor is valid
//     until the layer's next Forward/Backward call; callers that need the
//     values longer must Clone them. Layers never mutate their inputs, so an
//     upstream layer's output may be cached by reference until that upstream
//     layer runs again. This is what makes the steady-state training loop
//     allocation-free.
//   - Shape violations inside Forward/Backward are programmer errors and
//     panic; constructors and container builders return errors.
//   - Freezing a layer makes it behave as in evaluation mode (fixed batch-norm
//     statistics), skip its parameter gradients, and lets the Sequential
//     container stop backpropagation below the lowest trainable layer —
//     this is what makes the paper's partial fine-tuning cheap.
package nn

import (
	"fmt"

	"fedfteds/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	// Name identifies the parameter within its layer, e.g. "weight", "bias".
	Name string
	// W holds the parameter values.
	W *tensor.Tensor
	// G accumulates the gradient of the loss with respect to W, in W's shape.
	// It is nil until the parameter first receives a gradient (Grad), so a
	// model that never trains — a server's global, a client's install target
	// — carries none; nil reads as zero.
	G *tensor.Tensor
}

// Grad returns the gradient accumulator, allocating it zeroed on first use.
func (p *Param) Grad() *tensor.Tensor {
	if p.G == nil {
		p.G = tensor.New(p.W.Shape()...)
	}
	return p.G
}

// Layer is a differentiable module with explicit forward and backward passes.
type Layer interface {
	// Name returns the layer's human-readable identifier.
	Name() string
	// Forward computes the layer output for a batch-first input. When train
	// is true, the layer caches whatever it needs for Backward and updates
	// training-time state (batch-norm statistics) unless it is frozen.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient with respect to the layer output,
	// accumulates parameter gradients straight into each Param's Grad
	// (unless frozen; no per-layer gradient workspace), and, when needDx is
	// true, returns the gradient with respect to the layer input. When needDx
	// is false the return value may be nil.
	Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor
	// Params returns the layer's trainable parameters (empty for stateless
	// layers). The slice and its contents are owned by the layer.
	Params() []*Param
	// Buffers returns non-trainable state that must travel with the model,
	// such as batch-norm running statistics.
	Buffers() []*tensor.Tensor
	// SetFrozen toggles the frozen state (see package doc).
	SetFrozen(bool)
	// Frozen reports whether the layer is frozen.
	Frozen() bool
	// OutputShape returns the per-sample output shape for a per-sample input
	// shape (excluding the batch dimension).
	OutputShape(in []int) ([]int, error)
	// FLOPsPerSample estimates the forward floating-point operations for one
	// sample with the given per-sample input shape. Backward cost is modeled
	// by the simtime package as a multiple of this.
	FLOPsPerSample(in []int) int64
}

// base provides the shared Name/Frozen plumbing for layer implementations.
type base struct {
	name   string
	frozen bool
}

func (b *base) Name() string              { return b.name }
func (b *base) SetFrozen(f bool)          { b.frozen = f }
func (b *base) Frozen() bool              { return b.frozen }
func (b *base) Buffers() []*tensor.Tensor { return nil }
func (b *base) Params() []*Param          { return nil }

// shapeErr builds the panic message for an invalid runtime shape.
func shapeErr(layer string, want, got interface{}) string {
	return fmt.Sprintf("nn: %s: want %v, got %v", layer, want, got)
}

// captureShape copies t's dimensions into dst, reusing dst's storage. Unlike
// Tensor.Shape it does not allocate in steady state, which keeps the layer
// caches allocation-free.
func captureShape(dst []int, t *tensor.Tensor) []int {
	r := t.Rank()
	if cap(dst) < r {
		dst = make([]int, r)
	}
	dst = dst[:r]
	for i := range dst {
		dst[i] = t.Dim(i)
	}
	return dst
}
