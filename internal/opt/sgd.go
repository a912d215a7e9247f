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
// then zeroes the gradients.
func (s *SGD) Step() {
	lr := float32(s.cfg.LR)
	mom := float32(s.cfg.Momentum)
	wd := float32(s.cfg.WeightDecay)
	mu := float32(s.cfg.ProxMu)
	for i, p := range s.params {
		g := p.G
		if wd > 0 && !p.NoDecay {
			if err := g.Axpy(wd, p.W); err != nil {
				panic(err)
			}
		}
		if mu > 0 && s.anchor != nil {
			// g += μ (w - w_global)
			gd, wv, av := g.Data(), p.W.Data(), s.anchor[i].Data()
			for j := range gd {
				gd[j] += mu * (wv[j] - av[j])
			}
		}
		v := s.velocity[i]
		if mom > 0 {
			// v = mom*v + g
			vd, gd := v.Data(), g.Data()
			for j := range vd {
				vd[j] = mom*vd[j] + gd[j]
			}
			if s.cfg.Nesterov {
				// w -= lr * (g + mom*v)
				wv := p.W.Data()
				for j := range wv {
					wv[j] -= lr * (gd[j] + mom*vd[j])
				}
			} else {
				if err := p.W.Axpy(-lr, v); err != nil {
					panic(err)
				}
			}
		} else {
			if err := p.W.Axpy(-lr, g); err != nil {
				panic(err)
			}
		}
		g.Zero()
	}
}
