// Package opt implements the optimizers used for local client updates:
// stochastic gradient descent with heavy-ball momentum, plus the FedProx
// proximal term that penalizes drift from the global model.
package opt

import (
	"errors"
	"fmt"
	"math"

	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// ErrConfig reports an invalid optimizer configuration.
var ErrConfig = errors.New("opt: invalid configuration")

// SGDConfig configures an SGD optimizer. The paper trains clients with
// learning rate 0.1 and heavy-ball momentum 0.5, without weight decay or
// look-ahead momentum, which the optimizer therefore does not offer.
type SGDConfig struct {
	// LR is the learning rate; must be positive and finite.
	LR float64
	// Momentum is the heavy-ball coefficient, in [0, 1).
	Momentum float64
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
	// NaN fails every comparison, so each range is written to fail on it.
	if !(cfg.LR > 0) || math.IsInf(cfg.LR, 1) {
		return nil, fmt.Errorf("%w: LR %v must be positive and finite", ErrConfig, cfg.LR)
	}
	if !(cfg.Momentum >= 0 && cfg.Momentum < 1) {
		return nil, fmt.Errorf("%w: momentum %v outside [0,1)", ErrConfig, cfg.Momentum)
	}
	if !(cfg.ProxMu >= 0) {
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
// through the proximal term g += μ(w - w_global), the velocity v = mom·v + g,
// the weight update and g = 0, in that order and with the expression shapes
// of the separate passes these replace, so each element's bits are theirs on
// every target. The passes are tensor's SGD lane kernels, one per mode,
// decided once per parameter: a branch per element costs more than the
// passes it saves.
func (s *SGD) Step() {
	lr := float32(s.cfg.LR)
	mom := float32(s.cfg.Momentum)
	mu := float32(s.cfg.ProxMu)
	for i, p := range s.params {
		w := p.W.Data()
		g := p.Grad().Data()[:len(w)]
		v := s.velocity[i].Data()[:len(w)]
		switch {
		case mu > 0 && s.anchor != nil:
			tensor.SGDProx(w, g, v, s.anchor[i].Data()[:len(w)], lr, mom, mu)
		case mom > 0:
			tensor.SGDMomentum(w, g, v, lr, mom)
		default:
			tensor.SGDPlain(w, g, lr)
		}
	}
}
