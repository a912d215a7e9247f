package experiments

import (
	"fmt"
	"slices"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/tensor"
)

// Every table, figure, ablation and comparison sweep that compares training
// configurations is one Grid: federations × arms, run by runGrid, which owns
// building the federations and models, the run seeds and names, the
// artifact store and the centralised row. A table is then its declaration
// and its rendering.

// Edit changes a run's configuration and, for the tiers axis, the run's own
// copy of the federation's client list.
type Edit func(*core.Config, *Federation) error

// Arm is one configuration a grid compares: a label, how the model starts
// and an edit of the FedFT-EDS(50%, moderate) baseline configuration.
type Arm struct {
	// Label names the arm in its table.
	Label string
	// Run names the arm's runs, and salts their seeds, where it differs
	// from Label.
	Run string
	// Fresh starts from an untrained model; otherwise the feature extractor
	// is pretrained on Source, or on the grid's Source when nil.
	Fresh  bool
	Source *data.Domain
	// Edit changes the baseline; nil changes nothing.
	Edit Edit
	// Size and Mix are what a comparison sweep prints beside the label: the
	// cohort size or aggregation buffer, and the realized tier mix.
	Size int
	Mix  string
}

// name is what the arm's runs are named and seeded by.
func (a *Arm) name() string {
	if a.Run != "" {
		return a.Run
	}
	return a.Label
}

// FedSpec is one federation a grid runs its arms on (Env.BuildFederation).
type FedSpec struct {
	Target  *data.Domain
	Clients int
	// Samples is the per-client sample count; 0 is the scale's default.
	Samples int
	Alpha   float64
	Salt    int64
}

// Grid declares one table's runs: every arm on every federation.
type Grid struct {
	Feds []FedSpec
	Arms []Arm
	// Source pretrains the arms that name no source of their own, and names
	// the source of every run, the fresh arms' included; nil when each arm
	// brings its own.
	Source *data.Domain
	// Salt ends each run name and, with the arm's name, derives its seed.
	Salt int64
	// RunName, when set, names each run by this format over the arm's name,
	// and Seed then seeds every run alike, so a comparison isolates its arm
	// and not the run randomness.
	RunName string
	Seed    int64
	// Central appends to each federation the centralised upper bound: the
	// pretrained model trained on the pooled data for as many epochs as the
	// federated runs take rounds.
	Central bool
}

// Cell is one run of a grid: the federation it trained on, its arm, the
// configuration it ran under and its history.
type Cell struct {
	Fed    *FedSpec
	Arm    *Arm
	Config core.Config
	Hist   core.History
}

// Result is a grid's cells in run order — federations outer, arms inner,
// the centralised row last — and the table they render as.
type Result struct {
	Cells  []Cell
	render func(*Result) string
}

// Render prints the result in its table's shape.
func (r *Result) Render() string { return r.render(r) }

// Get returns the cell of the arm labelled label on the federation over
// dataset at alpha, or false.
func (r *Result) Get(label, dataset string, alpha float64) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Arm.Label == label && c.on(dataset, alpha) {
			return c, true
		}
	}
	return Cell{}, false
}

// Datasets lists the target domains in run order.
func (r *Result) Datasets() []string {
	return distinct(r.Cells, func(c Cell) string { return c.Fed.Target.Spec.Name })
}

// on reports whether the cell ran on the federation over dataset at alpha.
func (c Cell) on(dataset string, alpha float64) bool {
	return c.Fed.Target.Spec.Name == dataset && c.Fed.Alpha == alpha
}

// distinct lists key's values over the cells, in run order.
func distinct[T comparable](cells []Cell, key func(Cell) T) []T {
	var out []T
	for _, c := range cells {
		if k := key(c); !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// centralised is the centralised row's arm: the whole model on all data.
var centralised = Arm{Label: "Centralised", Edit: fedAvg}

// runGrid runs every arm of g on every federation, in that order, and
// returns the cells rendered by render. Each run gets the federation's
// clients, a model of its own and a name no other run of the grid has: the
// name keys its directory in the artifact store.
func (e *Env) runGrid(g Grid, render func(*Result) string) (*Result, error) {
	res := &Result{render: render}
	names := map[string]bool{}
	for i := range g.Feds {
		spec := &g.Feds[i]
		var fed *Federation
		var err error
		if spec.Samples > 0 {
			fed, err = e.BuildFederationSized(spec.Target, spec.Clients, spec.Samples, spec.Alpha, spec.Salt)
		} else {
			fed, err = e.BuildFederation(spec.Target, spec.Clients, spec.Alpha, spec.Salt)
		}
		if err != nil {
			return nil, err
		}
		for j := range g.Arms {
			a := &g.Arms[j]
			source := a.Source
			if source == nil {
				source = g.Source
			}
			seed, name := g.Seed, ""
			if g.RunName != "" {
				name = fmt.Sprintf(g.RunName, a.name())
			} else {
				from := "none"
				if source != nil {
					from = source.Spec.Name
				}
				seed = tensor.DeriveSeed(uint64(e.Seed), uint64(g.Salt), hashName(a.name()))
				name = fmt.Sprintf("%s-from-%s-a%g-c%d-n%d-%s-s%d", spec.Target.Spec.Name, from,
					spec.Alpha, len(fed.Clients), fed.Pool.Len(), a.name(), g.Salt)
			}
			dir := sanitizeRunName(name)
			if names[dir] {
				return nil, fmt.Errorf("%w: two runs of one grid are named %s", ErrExperiment, dir)
			}
			names[dir] = true
			var global *models.Model
			switch {
			case a.Fresh:
				global, err = e.FreshModel(spec.Target)
			case source == nil:
				err = fmt.Errorf("%w: no pretraining source", ErrExperiment)
			default:
				global, err = e.PretrainedModel(spec.Target, source)
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: model: %w", name, err)
			}
			// The arm edits its own copy of the client list, so no arm sees
			// another's edits.
			own := *fed
			own.Clients = slices.Clone(fed.Clients)
			cfg := e.baseConfig(seed)
			if a.Edit != nil {
				if err := a.Edit(&cfg, &own); err != nil {
					return nil, fmt.Errorf("experiments: %s: %w", name, err)
				}
			}
			hist, err := e.runFL(name, cfg, func(cfg core.Config) (*core.Runner, error) {
				return core.NewRunner(cfg, global, own.Clients, fed.Test)
			})
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Cell{Fed: spec, Arm: a, Config: cfg, Hist: hist})
		}
		if g.Central {
			cell, err := e.central(spec, fed, g.Source)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// central trains the centralised upper bound on a federation's pool.
func (e *Env) central(spec *FedSpec, fed *Federation, source *data.Domain) (Cell, error) {
	global, err := e.PretrainedModel(spec.Target, source)
	if err != nil {
		return Cell{}, err
	}
	cfg := e.baseConfig(e.Seed + 31)
	if err := centralised.Edit(&cfg, fed); err != nil {
		return Cell{}, err
	}
	if err := global.SetFinetunePart(cfg.FinetunePart); err != nil {
		return Cell{}, err
	}
	ch, err := core.TrainCentralized(global, fed.Pool, fed.Test, core.CentralConfig{
		Epochs: cfg.Rounds, LR: cfg.LR, Momentum: cfg.Momentum, Seed: cfg.Seed})
	if err != nil {
		return Cell{}, err
	}
	hist := core.History{BestAccuracy: ch.BestAccuracy, FinalAccuracy: ch.FinalAccuracy}
	for i, acc := range ch.TestAccuracies {
		hist.Records = append(hist.Records, core.RoundRecord{Round: i + 1, TestAccuracy: acc})
	}
	return Cell{Fed: spec, Arm: &centralised, Config: cfg, Hist: hist}, nil
}

// baseConfig is the FedFT-EDS(50%, moderate) run configuration every
// comparison starts from; arms overwrite the fields they vary.
func (e *Env) baseConfig(seed int64) core.Config {
	return core.Config{
		Rounds:         e.Dims.Rounds,
		LocalEpochs:    e.Dims.LocalEpochs,
		LR:             paperLR,
		Momentum:       paperMomentum,
		FinetunePart:   models.FinetuneModerate,
		Selector:       selection.Entropy{Temperature: paperTemperature},
		SelectFraction: 0.5,
		Seed:           seed,
	}
}
