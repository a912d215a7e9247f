// Package opt implements the optimizers used for local client updates:
// stochastic gradient descent with momentum and weight decay, plus the
// FedProx proximal term that penalizes drift from the global model.
package opt

import (
	"errors"
	"fmt"

	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// ErrConfig reports an invalid optimizer configuration.
var ErrConfig = errors.New("opt: invalid configuration")

// SGDConfig configures an SGD optimizer. The paper trains clients with
// learning rate 0.1 and momentum 0.5.
type SGDConfig struct {
	// LR is the learning rate; must be positive.
	LR float64
	// Momentum in [0, 1).
	Momentum float64
	// WeightDecay is the L2 coefficient applied to parameters that are not
	// marked NoDecay.
	WeightDecay float64
	// Nesterov enables Nesterov momentum.
	Nesterov bool
	// ProxMu is the FedProx proximal coefficient μ; when positive, Step adds
	// μ(w - w_global) to each gradient. The anchor is set with
	// SnapshotProxAnchor.
	ProxMu float64
}

// SGD updates a fixed set of parameters in place. It owns one velocity
// buffer per parameter. Not safe for concurrent use.
type SGD struct {
	cfg      SGDConfig
	params   []*nn.Param
	velocity []*tensor.Tensor
	anchor   []*tensor.Tensor // FedProx global-model anchor, parallel to params
	// anchorBuf holds SnapshotProxAnchor's reusable storage across Resets.
	anchorBuf []*tensor.Tensor
}

// NewSGD constructs an optimizer over params.
func NewSGD(cfg SGDConfig, params []*nn.Param) (*SGD, error) {
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("%w: LR %v must be positive", ErrConfig, cfg.LR)
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("%w: momentum %v outside [0,1)", ErrConfig, cfg.Momentum)
	}
	if cfg.WeightDecay < 0 {
		return nil, fmt.Errorf("%w: weight decay %v negative", ErrConfig, cfg.WeightDecay)
	}
	if cfg.ProxMu < 0 {
		return nil, fmt.Errorf("%w: proximal mu %v negative", ErrConfig, cfg.ProxMu)
	}
	vel := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vel[i] = tensor.New(p.W.Shape()...)
	}
	return &SGD{cfg: cfg, params: params, velocity: vel}, nil
}

// SnapshotProxAnchor records the optimizer's current parameter values as the
// proximal anchor w_global, reusing previously allocated anchor storage.
func (s *SGD) SnapshotProxAnchor() {
	if s.anchorBuf == nil {
		s.anchorBuf = make([]*tensor.Tensor, len(s.params))
	}
	for i, p := range s.params {
		s.anchorBuf[i] = tensor.Ensure(s.anchorBuf[i], p.W.Shape()...)
		if err := s.anchorBuf[i].CopyFrom(p.W); err != nil {
			panic(err) // shapes come from the params themselves
		}
	}
	s.anchor = s.anchorBuf
}

// Reset zeroes the momentum buffers and drops any proximal anchor, returning
// the optimizer to its just-constructed state. A pooled client replica calls
// this between local rounds so optimizer reuse stays bit-identical to
// constructing a fresh SGD.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		v.Zero()
	}
	s.anchor = nil
}

// Step applies one update to every parameter from its accumulated gradient,
// then zeroes the gradients, in one pass over each parameter: element j goes
// through weight decay g += wd·w, the proximal term g += μ(w - w_global), the
// velocity v = mom·v + g, the weight update and g = 0, in that order and with
// the expression shapes of the separate passes these replace, so each
// element's bits are theirs on every target. The modes are separate loops,
// decided once per parameter: a branch per element costs more than the
// passes it saves.
func (s *SGD) Step() {
	lr := float32(s.cfg.LR)
	nlr := -lr
	mom := float32(s.cfg.Momentum)
	wd := float32(s.cfg.WeightDecay)
	mu := float32(s.cfg.ProxMu)
	for i, p := range s.params {
		w := p.W.Data()
		g := p.Grad().Data()[:len(w)]
		v := s.velocity[i].Data()[:len(w)]
		decay := wd > 0 && !p.NoDecay
		prox := mu > 0 && s.anchor != nil
		switch {
		case decay || prox || (mom > 0 && s.cfg.Nesterov):
			var a []float32
			if prox {
				a = s.anchor[i].Data()[:len(w)]
			}
			stepGeneral(w, g, v, a, lr, mom, wd, mu, decay, s.cfg.Nesterov)
		case mom > 0:
			for j, gj := range g {
				v[j] = mom*v[j] + gj
				w[j] += nlr * v[j]
				g[j] = 0
			}
		default:
			for j, gj := range g {
				w[j] += nlr * gj
				g[j] = 0
			}
		}
	}
}

// stepGeneral is Step's loop for the modes that amend the gradient (weight
// decay, the proximal term toward a, whose nil means none) or look ahead
// (Nesterov).
func stepGeneral(w, g, v, a []float32, lr, mom, wd, mu float32, decay, nesterov bool) {
	nlr := -lr
	for j := range w {
		gj := g[j]
		if decay {
			gj += wd * w[j]
		}
		if a != nil {
			gj += mu * (w[j] - a[j])
		}
		switch {
		case mom > 0 && nesterov:
			v[j] = mom*v[j] + gj
			w[j] -= lr * (gj + mom*v[j])
		case mom > 0:
			v[j] = mom*v[j] + gj
			w[j] += nlr * v[j]
		default:
			w[j] += nlr * gj
		}
		g[j] = 0
	}
}
