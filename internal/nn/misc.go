package nn

import "fedfteds/internal/tensor"

// Flatten reshapes (N, ...) inputs to (N, prod(...)).
type Flatten struct {
	base
	inShape []int

	// Cached workspaces, reused across steps (see the package aliasing rule).
	y, dx *tensor.Tensor
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a flattening layer.
func NewFlatten(name string) *Flatten {
	return &Flatten{base: base{name: name}}
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() < 2 {
		panic(shapeErr("flatten "+f.name, "rank >= 2", x.Shape()))
	}
	n := x.Dim(0)
	rest := x.Len() / max(n, 1)
	if train {
		f.inShape = captureShape(f.inShape, x)
	}
	f.y = tensor.Ensure(f.y, n, rest)
	copy(f.y.Data(), x.Data())
	return f.y
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	if f.inShape == nil {
		panic("nn: flatten " + f.name + ": Backward without train Forward")
	}
	f.dx = tensor.Ensure(f.dx, f.inShape...)
	copy(f.dx.Data(), dy.Data())
	return f.dx
}

// OutputShape implements Layer.
func (f *Flatten) OutputShape(in []int) ([]int, error) {
	return []int{tensor.Volume(in)}, nil
}

// FLOPsPerSample implements Layer.
func (f *Flatten) FLOPsPerSample(in []int) int64 { return 0 }
