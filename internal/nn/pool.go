package nn

import (
	"fmt"

	"fedfteds/internal/tensor"
)

// GlobalAvgPool averages each channel's spatial plane, mapping (N, C, H, W)
// to (N, C). It is the head pooling of the Wide ResNet.
type GlobalAvgPool struct {
	base
	inShape []int

	// Cached workspaces, reused across steps (see the package aliasing rule).
	y, dx *tensor.Tensor
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool {
	return &GlobalAvgPool{base: base{name: name}}
}

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(shapeErr("gap "+g.name, "rank 4", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	sp := h * w
	g.y = tensor.Ensure(g.y, n, c)
	xd, yd := x.Data(), g.y.Data()
	inv := 1.0 / float64(sp)
	for i := 0; i < n*c; i++ {
		var s float64
		for _, v := range xd[i*sp : (i+1)*sp] {
			s += float64(v)
		}
		yd[i] = float32(s * inv)
	}
	g.inShape = captureShape(g.inShape, x)
	return g.y
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	if g.inShape == nil {
		panic("nn: gap " + g.name + ": Backward without train Forward")
	}
	h, w := g.inShape[2], g.inShape[3]
	sp := h * w
	g.dx = tensor.Ensure(g.dx, g.inShape...)
	dxd := g.dx.Data()
	inv := float32(1.0 / float64(sp))
	for i, dv := range dy.Data() {
		grad := dv * inv
		row := dxd[i*sp : (i+1)*sp]
		for j := range row {
			row[j] = grad
		}
	}
	return g.dx
}

// OutputShape implements Layer.
func (g *GlobalAvgPool) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: gap %q: per-sample input %v", g.name, in)
	}
	return []int{in[0]}, nil
}

// FLOPsPerSample implements Layer.
func (g *GlobalAvgPool) FLOPsPerSample(in []int) int64 { return int64(tensor.Volume(in)) }
