// Package strategy decomposes the federated-optimization algorithm into a
// pluggable two-sided API, so the engines (the in-process simulator's
// core.Runner and the distributed comm.RoundEngine server) orchestrate
// rounds without hardcoding any particular algorithm.
//
// Server side, a Strategy owns how client updates are weighted
// (WeighUpdates) and how their weighted average moves the global model
// (ApplyAggregate, delegating to a pluggable opt.ServerOpt — overwrite for
// FedAvg, momentum for FedAvgM, adaptive moments for FedAdam/FedYogi).
// Client side, an optional LocalHook carries the per-round local-objective
// twist (FedProx's proximal anchor) into the shared local-update primitive.
// Server optimizers live entirely on the server, so strategies change
// nothing on the wire.
//
// Strategies are named and flag-constructible ("fedadam:lr=0.05,beta1=0.9",
// see Parse), deterministic, and checkpointable: stateful strategies expose
// their optimizer state through the Stateful interface and their full
// configuration through Fingerprint, so a run checkpoint refuses to resume
// under an edited strategy.
package strategy

import (
	"errors"
	"fmt"
	"math"

	"fedfteds/internal/opt"
	"fedfteds/internal/tensor"
)

// ErrStrategy reports an invalid strategy configuration.
var ErrStrategy = errors.New("strategy: invalid configuration")

// Update describes one client update for aggregation weighting. It carries
// only round metadata — the state tensors stay with the engine, which is
// what lets the distributed server weigh updates as they stream in.
type Update struct {
	// ClientID is the sender's federation index.
	ClientID int
	// NumSelected is |D_select|, the number of samples the client trained on.
	NumSelected int
	// LocalSize is |D_k|, the client's full local dataset size.
	LocalSize int
}

// Weighting selects the aggregation weights p_k.
type Weighting int

const (
	// WeightBySelected weights each client by |D_select| (paper Eq. 5).
	WeightBySelected Weighting = iota + 1
	// WeightByLocalSize weights each client by its full |D_k|.
	WeightByLocalSize
	// WeightUniform gives every participating client equal weight.
	WeightUniform
)

// String implements fmt.Stringer.
func (w Weighting) String() string {
	switch w {
	case WeightBySelected:
		return "selected"
	case WeightByLocalSize:
		return "local-size"
	case WeightUniform:
		return "uniform"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// LocalHook is the client-side half of a strategy: a per-round twist on the
// local objective, applied by both engines' local-update paths (the
// simulator's pooled replicas and the standalone LocalUpdate used by
// fedclient).
type LocalHook interface {
	// Name renders the hook canonically for fingerprints ("prox(mu=0.1)").
	Name() string
	// TuneSGD amends the client optimizer's configuration before it is
	// constructed (FedProx sets the proximal coefficient μ).
	TuneSGD(cfg *opt.SGDConfig)
	// OnBind runs once per local round, after the local model is bound to
	// the received global state and the optimizer reset, before training
	// (FedProx snapshots the proximal anchor here).
	OnBind(sgd *opt.SGD) error
}

// Strategy is the server-side algorithm plugin the engines orchestrate.
// Implementations must be deterministic: identical inputs yield bitwise
// identical outputs.
type Strategy interface {
	// Name is the strategy's CLI identifier ("fedavg", "fedadam", ...).
	Name() string
	// Fingerprint renders the complete configuration canonically (name,
	// server-optimizer parameters, weighting, hook). Checkpoints store it
	// and TagConfig hashes it, so resuming under an edited strategy is
	// refused rather than silently blended.
	Fingerprint() string
	// WeighUpdates fills w[i] with the aggregation weight of ups[i]; w and
	// ups are parallel. Weights must be non-negative with a positive sum
	// (the engine validates and normalizes).
	WeighUpdates(ups []Update, w []float64) error
	// ApplyAggregate folds the weighted client average into the global
	// tensors in place, through the strategy's server optimizer.
	ApplyAggregate(global, avg []*tensor.Tensor) error
	// LocalHook returns the client-side objective hook, nil when the local
	// objective is plain SGD.
	LocalHook() LocalHook
}

// Stateful is implemented by strategies whose ApplyAggregate evolves
// server-optimizer state across rounds (FedAvgM's velocity, FedAdam's
// moments). A run checkpoint captures this state so a resumed run applies
// aggregates bit-identically to an uninterrupted one.
type Stateful interface {
	Strategy
	// StateTensors returns the live server-optimizer state in canonical
	// order (empty for fresh stateless members like fedavg).
	StateTensors() []*tensor.Tensor
	// RestoreStateTensors replaces the state from a StateTensors snapshot.
	RestoreStateTensors(ts []*tensor.Tensor) error
}

// Composite is the shipped Strategy implementation: a weighting rule, a
// server optimizer, and an optional local hook. All named strategies
// (fedavg, fedprox, fedavgm, fedadam, fedyogi) are Composite instances;
// callers needing a custom mix construct one with New.
type Composite struct {
	name      string
	weighting Weighting
	server    opt.ServerOpt
	hook      LocalHook
}

var _ Stateful = (*Composite)(nil)

// New composes a strategy from its parts.
func New(name string, weighting Weighting, server opt.ServerOpt, hook LocalHook) (*Composite, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty strategy name", ErrStrategy)
	}
	switch weighting {
	case WeightBySelected, WeightByLocalSize, WeightUniform:
	default:
		return nil, fmt.Errorf("%w: aggregation weighting %v", ErrStrategy, weighting)
	}
	if server == nil {
		return nil, fmt.Errorf("%w: nil server optimizer", ErrStrategy)
	}
	return &Composite{name: name, weighting: weighting, server: server, hook: hook}, nil
}

// Name implements Strategy.
func (c *Composite) Name() string { return c.name }

// Fingerprint implements Strategy.
func (c *Composite) Fingerprint() string {
	hook := ""
	if c.hook != nil {
		hook = c.hook.Name()
	}
	return fmt.Sprintf("%s{server=%s(%s),weight=%s,hook=%s}",
		c.name, c.server.Name(), c.server.Params(), c.weighting, hook)
}

// WeighUpdates implements Strategy.
func (c *Composite) WeighUpdates(ups []Update, w []float64) error {
	if len(w) != len(ups) {
		return fmt.Errorf("%w: %d weights for %d updates", ErrStrategy, len(w), len(ups))
	}
	for i, u := range ups {
		switch c.weighting {
		case WeightBySelected:
			w[i] = float64(u.NumSelected)
		case WeightByLocalSize:
			w[i] = float64(u.LocalSize)
		case WeightUniform:
			w[i] = 1
		default:
			return fmt.Errorf("%w: aggregation weighting %v", ErrStrategy, c.weighting)
		}
	}
	return nil
}

// ApplyAggregate implements Strategy.
func (c *Composite) ApplyAggregate(global, avg []*tensor.Tensor) error {
	return c.server.Apply(global, avg)
}

// LocalHook implements Strategy.
func (c *Composite) LocalHook() LocalHook { return c.hook }

// StateTensors implements Stateful.
func (c *Composite) StateTensors() []*tensor.Tensor { return c.server.StateTensors() }

// RestoreStateTensors implements Stateful.
func (c *Composite) RestoreStateTensors(ts []*tensor.Tensor) error {
	return c.server.RestoreStateTensors(ts)
}

// Prox is the FedProx local hook: it sets the client optimizer's proximal
// coefficient μ and snapshots the received global state as the proximal
// anchor at every local-round bind.
type Prox struct {
	// Mu is the proximal coefficient μ; must be positive.
	Mu float64
}

var _ LocalHook = Prox{}

// Name implements LocalHook.
func (p Prox) Name() string { return fmt.Sprintf("prox(mu=%g)", p.Mu) }

// TuneSGD implements LocalHook.
func (p Prox) TuneSGD(cfg *opt.SGDConfig) { cfg.ProxMu = p.Mu }

// OnBind implements LocalHook.
func (p Prox) OnBind(sgd *opt.SGD) error {
	sgd.SnapshotProxAnchor()
	return nil
}

// Default server-optimizer parameters, following the FedOpt reference
// settings (and lr = 1 for FedAvgM, whose β = 0 limit is plain FedAvg).
const (
	// DefaultProxMu is the FedProx proximal coefficient.
	DefaultProxMu = 0.1
	// DefaultMomentumLR is the FedAvgM server learning rate.
	DefaultMomentumLR = 1.0
	// DefaultAdaptiveLR is the FedAdam/FedYogi server learning rate.
	DefaultAdaptiveLR = 0.1
	// DefaultBeta1 and DefaultBeta2 are the moment decay rates.
	DefaultBeta1 = 0.9
	DefaultBeta2 = 0.99
	// DefaultTau is the adaptivity floor τ.
	DefaultTau = 1e-3
)

// FedAvg returns the default strategy: selected-size weighting, overwrite
// server, plain local SGD. The engines are pinned bit-identical to their
// pre-strategy behavior through it.
func FedAvg() *Composite {
	s, err := New("fedavg", WeightBySelected, opt.Overwrite{}, nil)
	if err != nil {
		panic(err) // fixed, valid composition
	}
	return s
}

// FedAvgWith is FedAvg with an explicit weighting and local hook: the
// aggregation-weighting ablation's strategies (FedAvgWith(WeightUniform,
// nil) averages every client equally).
func FedAvgWith(weighting Weighting, hook LocalHook) (*Composite, error) {
	return New("fedavg", weighting, opt.Overwrite{}, hook)
}

// FedProx returns FedAvg with the proximal local hook.
func FedProx(mu float64) (*Composite, error) {
	if !(mu > 0) || math.IsInf(mu, 1) {
		return nil, fmt.Errorf("%w: fedprox mu %v must be positive and finite", ErrStrategy, mu)
	}
	return New("fedprox", WeightBySelected, opt.Overwrite{}, Prox{Mu: mu})
}

// FedAvgM returns the server-momentum strategy.
func FedAvgM(lr, beta1 float64) (*Composite, error) {
	srv, err := opt.NewServerMomentum(lr, beta1)
	if err != nil {
		return nil, fmt.Errorf("%w: fedavgm: %v", ErrStrategy, err)
	}
	return New("fedavgm", WeightBySelected, srv, nil)
}

// FedAdam returns the adaptive-moments strategy.
func FedAdam(lr, beta1, beta2, tau float64) (*Composite, error) {
	srv, err := opt.NewServerAdam(lr, beta1, beta2, tau, false)
	if err != nil {
		return nil, fmt.Errorf("%w: fedadam: %v", ErrStrategy, err)
	}
	return New("fedadam", WeightBySelected, srv, nil)
}

// FedYogi returns the Yogi-variant adaptive strategy, whose second-moment
// update is additive and therefore less sensitive to heavy-tailed
// pseudo-gradients than FedAdam's multiplicative one.
func FedYogi(lr, beta1, beta2, tau float64) (*Composite, error) {
	srv, err := opt.NewServerAdam(lr, beta1, beta2, tau, true)
	if err != nil {
		return nil, fmt.Errorf("%w: fedyogi: %v", ErrStrategy, err)
	}
	return New("fedyogi", WeightBySelected, srv, nil)
}

// IsDefault reports whether s is exactly the default FedAvg composition —
// the one configuration whose checkpoints interoperate with runs that never
// set a strategy at all.
func IsDefault(s Strategy) bool {
	return s != nil && s.Fingerprint() == FedAvg().Fingerprint()
}
