package nn

import (
	"fmt"
	"math/rand"

	"fedfteds/internal/tensor"
)

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

// Dropout is inverted dropout: in training mode it zeroes each element with
// probability Rate and scales survivors by 1/(1-Rate); in evaluation or when
// frozen it is the identity.
type Dropout struct {
	base
	rate float64
	seed int64
	rng  *rand.Rand
	mask []float32

	// Cached workspaces, reused across steps (see the package aliasing rule).
	y, dx *tensor.Tensor
	shape []int
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with the given drop rate in [0, 1).
// The layer owns a deterministic RNG derived from seed.
func NewDropout(name string, rate float64, seed int64) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout %q: rate %v outside [0,1)", name, rate)
	}
	return &Dropout{
		base: base{name: name},
		rate: rate,
		seed: seed,
		rng:  rand.New(tensor.NewSource(seed)),
	}, nil
}

// Reseed restarts the dropout RNG from a new seed, in place; used when
// cloning models so clones draw independent masks.
func (d *Dropout) Reseed(seed int64) {
	d.seed = seed
	d.rng.Seed(seed)
}

// ResetRNG rewinds the dropout RNG to its seed, in place, restoring the mask
// stream a freshly built layer would draw. Pooled model replicas call this
// between clients so reuse stays bit-identical to cloning.
func (d *Dropout) ResetRNG() { d.rng.Seed(d.seed) }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.shape = captureShape(d.shape, x)
	d.y = tensor.Ensure(d.y, d.shape...)
	xd, yd := x.Data(), d.y.Data()
	if !train || d.frozen || d.rate == 0 {
		d.mask = nil
		copy(yd, xd)
		return d.y
	}
	if cap(d.mask) < len(yd) {
		d.mask = make([]float32, len(yd))
	}
	d.mask = d.mask[:len(yd)]
	keep := float32(1.0 / (1.0 - d.rate))
	for i, v := range xd {
		if d.rng.Float64() < d.rate {
			d.mask[i] = 0
			yd[i] = 0
		} else {
			d.mask[i] = keep
			yd[i] = v * keep
		}
	}
	return d.y
}

// Backward implements Layer.
func (d *Dropout) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	d.dx = tensor.Ensure(d.dx, d.shape...)
	dyd, dxd := dy.Data(), d.dx.Data()
	if d.mask == nil {
		copy(dxd, dyd)
		return d.dx
	}
	for i, v := range dyd {
		dxd[i] = v * d.mask[i]
	}
	return d.dx
}

// OutputShape implements Layer.
func (d *Dropout) OutputShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// FLOPsPerSample implements Layer.
func (d *Dropout) FLOPsPerSample(in []int) int64 { return int64(tensor.Volume(in)) }
