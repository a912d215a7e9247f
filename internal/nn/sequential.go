package nn

import (
	"fmt"

	"fedfteds/internal/tensor"
)

// Sequential chains layers. It implements Layer itself, so it can be nested
// (residual block branches are Sequentials).
type Sequential struct {
	name   string
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential constructs a sequential container over the given layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Layers returns the contained layers. The slice is owned by the container.
func (s *Sequential) Layers() []Layer { return s.layers }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// VisitLayers calls f for every leaf layer under s in depth-first order,
// descending into nested Sequential and Residual containers.
func (s *Sequential) VisitLayers(f func(Layer)) {
	for _, l := range s.layers {
		visitLayer(l, f)
	}
}

func visitLayer(l Layer, f func(Layer)) {
	switch v := l.(type) {
	case *Sequential:
		v.VisitLayers(f)
	case *Residual:
		v.body.VisitLayers(f)
		if v.shortcut != nil {
			v.shortcut.VisitLayers(f)
		}
	default:
		f(l)
	}
}

// Backward implements Layer. Backpropagation stops below the lowest
// non-frozen layer unless the caller itself requires dx.
func (s *Sequential) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	lowest := len(s.layers) // index of lowest trainable layer
	for i, l := range s.layers {
		if !layerFullyFrozen(l) {
			lowest = i
			break
		}
	}
	for i := len(s.layers) - 1; i >= 0; i-- {
		need := needDx || i > lowest
		dy = s.layers[i].Backward(dy, need)
		if dy == nil && i > 0 && need {
			panic(fmt.Sprintf("nn: sequential %q: layer %q returned nil gradient", s.name, s.layers[i].Name()))
		}
		if !need {
			return nil
		}
	}
	return dy
}

// layerFullyFrozen reports whether l and (for containers) all its descendants
// are frozen.
func layerFullyFrozen(l Layer) bool {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.layers {
			if !layerFullyFrozen(c) {
				return false
			}
		}
		return true
	case *Residual:
		return layerFullyFrozen(v.body) && (v.shortcut == nil || layerFullyFrozen(v.shortcut))
	default:
		return l.Frozen()
	}
}

// Params implements Layer, collecting parameters of all children in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// TrainableParams returns parameters of non-frozen descendants only.
func (s *Sequential) TrainableParams() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		switch v := l.(type) {
		case *Sequential:
			ps = append(ps, v.TrainableParams()...)
		case *Residual:
			ps = append(ps, v.TrainableParams()...)
		default:
			if !l.Frozen() {
				ps = append(ps, l.Params()...)
			}
		}
	}
	return ps
}

// FrozenParams returns parameters of frozen descendants only — the exact
// complement of TrainableParams, so for any freeze mask the two partition
// Params with no tensor duplicated or lost.
func (s *Sequential) FrozenParams() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		switch v := l.(type) {
		case *Sequential:
			ps = append(ps, v.FrozenParams()...)
		case *Residual:
			ps = append(ps, v.FrozenParams()...)
		default:
			if l.Frozen() {
				ps = append(ps, l.Params()...)
			}
		}
	}
	return ps
}

// Buffers implements Layer.
func (s *Sequential) Buffers() []*tensor.Tensor {
	var bs []*tensor.Tensor
	for _, l := range s.layers {
		bs = append(bs, l.Buffers()...)
	}
	return bs
}

// SetFrozen implements Layer, applying to every child.
func (s *Sequential) SetFrozen(f bool) {
	for _, l := range s.layers {
		l.SetFrozen(f)
	}
}

// Frozen implements Layer: true when every child is frozen.
func (s *Sequential) Frozen() bool { return layerFullyFrozen(s) }

// ZeroGrads zeroes all parameter gradients.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.Params() {
		p.G.Zero()
	}
}

// OutputShape implements Layer.
func (s *Sequential) OutputShape(in []int) ([]int, error) {
	var err error
	for _, l := range s.layers {
		in, err = l.OutputShape(in)
		if err != nil {
			return nil, fmt.Errorf("nn: sequential %q: %w", s.name, err)
		}
	}
	return in, nil
}

// FLOPsPerSample implements Layer, summing children along the shape chain.
// It panics if the input shape is incompatible (programmer error).
func (s *Sequential) FLOPsPerSample(in []int) int64 {
	var total int64
	for _, l := range s.layers {
		total += l.FLOPsPerSample(in)
		next, err := l.OutputShape(in)
		if err != nil {
			panic(err)
		}
		in = next
	}
	return total
}

// Residual adds a body path to a shortcut path: y = body(x) + shortcut(x).
// A nil shortcut is the identity. This is the building block of the Wide
// ResNet (pre-activation form is expressed by the body's layer order).
type Residual struct {
	name     string
	body     *Sequential
	shortcut *Sequential // nil means identity

	// Cached workspaces, reused across steps (see the package aliasing rule).
	out, dx *tensor.Tensor
	inShape []int // x's shape, the shape of the dx workspace
	shape   []int // y's shape, the shape of the out workspace
}

var _ Layer = (*Residual)(nil)

// NewResidual constructs a residual block. shortcut may be nil for identity.
func NewResidual(name string, body *Sequential, shortcut *Sequential) *Residual {
	return &Residual{name: name, body: body, shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.body.Forward(x, train)
	var sc *tensor.Tensor
	if r.shortcut != nil {
		sc = r.shortcut.Forward(x, train)
	} else {
		sc = x
	}
	r.inShape = captureShape(r.inShape, x)
	r.shape = captureShape(r.shape, y)
	r.out = tensor.Ensure(r.out, r.shape...)
	if err := r.out.CopyFrom(y); err != nil {
		panic(err)
	}
	if err := r.out.Add(sc); err != nil {
		panic(fmt.Sprintf("nn: residual %q: body %v vs shortcut %v", r.name, y.Shape(), sc.Shape()))
	}
	return r.out
}

// Backward implements Layer.
func (r *Residual) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	bodyNeedDx := needDx || r.shortcut != nil // identity shortcut passes dy through anyway
	dxBody := r.body.Backward(dy, bodyNeedDx)
	if r.shortcut != nil {
		dxSc := r.shortcut.Backward(dy, needDx)
		if !needDx {
			return nil
		}
		r.dx = tensor.Ensure(r.dx, r.inShape...)
		if err := r.dx.CopyFrom(dxBody); err != nil {
			panic(err)
		}
		if err := r.dx.Add(dxSc); err != nil {
			panic(err)
		}
		return r.dx
	}
	if !needDx {
		return nil
	}
	// Identity shortcut: dx = body dx + dy.
	r.dx = tensor.Ensure(r.dx, r.inShape...)
	if dxBody != nil {
		if err := r.dx.CopyFrom(dxBody); err != nil {
			panic(err)
		}
	} else {
		r.dx.Zero()
	}
	if err := r.dx.Add(dy); err != nil {
		panic(err)
	}
	return r.dx
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.body.Params()
	if r.shortcut != nil {
		ps = append(ps, r.shortcut.Params()...)
	}
	return ps
}

// TrainableParams returns parameters of non-frozen descendants.
func (r *Residual) TrainableParams() []*Param {
	ps := r.body.TrainableParams()
	if r.shortcut != nil {
		ps = append(ps, r.shortcut.TrainableParams()...)
	}
	return ps
}

// FrozenParams returns parameters of frozen descendants, complementing
// TrainableParams (see Sequential.FrozenParams).
func (r *Residual) FrozenParams() []*Param {
	ps := r.body.FrozenParams()
	if r.shortcut != nil {
		ps = append(ps, r.shortcut.FrozenParams()...)
	}
	return ps
}

// Buffers implements Layer.
func (r *Residual) Buffers() []*tensor.Tensor {
	bs := r.body.Buffers()
	if r.shortcut != nil {
		bs = append(bs, r.shortcut.Buffers()...)
	}
	return bs
}

// SetFrozen implements Layer.
func (r *Residual) SetFrozen(f bool) {
	r.body.SetFrozen(f)
	if r.shortcut != nil {
		r.shortcut.SetFrozen(f)
	}
}

// Frozen implements Layer.
func (r *Residual) Frozen() bool { return layerFullyFrozen(r) }

// OutputShape implements Layer.
func (r *Residual) OutputShape(in []int) ([]int, error) {
	out, err := r.body.OutputShape(in)
	if err != nil {
		return nil, err
	}
	if r.shortcut != nil {
		scOut, err := r.shortcut.OutputShape(in)
		if err != nil {
			return nil, err
		}
		if tensor.Volume(scOut) != tensor.Volume(out) {
			return nil, fmt.Errorf("nn: residual %q: body %v vs shortcut %v", r.name, out, scOut)
		}
	} else if tensor.Volume(in) != tensor.Volume(out) {
		return nil, fmt.Errorf("nn: residual %q: identity shortcut with body %v -> %v", r.name, in, out)
	}
	return out, nil
}

// FLOPsPerSample implements Layer.
func (r *Residual) FLOPsPerSample(in []int) int64 {
	total := r.body.FLOPsPerSample(in)
	if r.shortcut != nil {
		total += r.shortcut.FLOPsPerSample(in)
	}
	out, err := r.body.OutputShape(in)
	if err == nil {
		total += int64(tensor.Volume(out)) // the addition
	}
	return total
}
