// Package experiments assembles the paper's evaluation: one constructor per
// table and figure, sized by a fast/full Scale, all deterministic from a
// single seed. Every experiment that compares training configurations is one
// Grid of federations × arms (grid.go); it returns a Result holding one Cell
// per run (consumed by tests and benches) and a Render method that prints
// rows shaped like the paper's artifact.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured shape checks
// live in EXPERIMENTS.md.
package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/partition"
	"fedfteds/internal/seeds"
	"fedfteds/internal/simtime"
)

// ErrExperiment reports an invalid experiment configuration.
var ErrExperiment = errors.New("experiments: invalid configuration")

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleSmoke is minimal sizing for unit tests: every experiment runs in
	// well under a second apiece; orderings are not meaningful.
	ScaleSmoke Scale = iota + 1
	// ScaleFast is sized for benchmarks and CI: fewer rounds, clients and
	// samples. Robust result shapes (method orderings) are preserved.
	ScaleFast
	// ScaleFull approximates the paper's setup: 50 rounds, 10 or 100
	// clients, E=5 local epochs.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleSmoke:
		return "smoke"
	case ScaleFast:
		return "fast"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a CLI flag value into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return ScaleSmoke, nil
	case "fast":
		return ScaleFast, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("%w: scale %q (want smoke, fast or full)", ErrExperiment, s)
	}
}

// Dimensions holds the scale-dependent sizing.
type Dimensions struct {
	Rounds           int
	LocalEpochs      int
	SmallClients     int // the 10-client close-domain scenario
	LargeClients     int // the 100-client straggler scenario
	SamplesPerClient int
	// SmallClientSamples is the per-client sample count in the small
	// (10-client, Table II) scenario, where the paper's clients are
	// data-rich; zero falls back to SamplesPerClient.
	SmallClientSamples int
	TestSamples        int
	PretrainSamples    int
	PretrainEpochs     int
	Target100Classes   int // the "CIFAR-100" analogue's class count at this scale
}

// dims returns the sizing for a scale.
func dims(s Scale) (Dimensions, error) {
	switch s {
	case ScaleSmoke:
		return Dimensions{
			Rounds:             3,
			LocalEpochs:        2,
			SmallClients:       4,
			LargeClients:       8,
			SamplesPerClient:   40,
			SmallClientSamples: 40,
			TestSamples:        200,
			PretrainSamples:    800,
			PretrainEpochs:     4,
			Target100Classes:   8,
		}, nil
	case ScaleFast:
		return Dimensions{
			Rounds:             12,
			LocalEpochs:        6,
			SmallClients:       8,
			LargeClients:       24,
			SamplesPerClient:   56,
			SmallClientSamples: 80,
			TestSamples:        600,
			PretrainSamples:    5000,
			PretrainEpochs:     15,
			Target100Classes:   20,
		}, nil
	case ScaleFull:
		// Sized for a single-core pure-Go run (~30 minutes for the complete
		// sweep). The paper's exact counts (50 rounds, 100 clients, 500
		// samples/client on GPU) are reachable by editing these dimensions;
		// every result shape reported in EXPERIMENTS.md is stable from this
		// sizing up.
		return Dimensions{
			Rounds:             24,
			LocalEpochs:        5,
			SmallClients:       10,
			LargeClients:       40,
			SamplesPerClient:   100,
			SmallClientSamples: 240,
			TestSamples:        1000,
			PretrainSamples:    8000,
			PretrainEpochs:     15,
			Target100Classes:   50,
		}, nil
	default:
		return Dimensions{}, fmt.Errorf("%w: scale %v", ErrExperiment, s)
	}
}

// Standard experiment constants shared with the paper.
const (
	// paperTemperature is the hardened-softmax ρ (paper: 0.1).
	paperTemperature = 0.1
	// paperLR and paperMomentum are the client SGD settings (paper: 0.1/0.5).
	paperLR       = 0.05
	paperMomentum = 0.5
	// paperProxMu is the FedProx proximal coefficient.
	paperProxMu = 0.1
	// deviceMedianFLOPS and deviceSigma define the simulated device
	// population (lognormal around 1 GFLOP/s).
	deviceMedianFLOPS = 1e9
	deviceSigma       = 0.35
	// mlpHidden is the experiment model's hidden width.
	mlpHidden = 64
)

// Env is the shared experimental environment: domains, sizing and cached
// pretrained feature extractors.
type Env struct {
	// Scale echoes the construction scale.
	Scale Scale
	// Dims is the scale's sizing.
	Dims Dimensions
	// Suite holds the synthetic domains.
	Suite *data.StandardSuite
	// Seed drives every stochastic component.
	Seed int64

	pretrained map[string]*models.Model // cached source-pretrained models, by domain name
	target100  *data.Domain             // scale-sized "CIFAR-100" analogue, lazily built
	ckptPolicy CheckpointPolicy         // artifact-store policy applied to every run
}

// CheckpointPolicy turns the experiment harness's checkpoint directory into
// an artifact store: every federated run an experiment launches checkpoints
// into its own deterministic subdirectory of Dir, and with Resume set a
// re-launched sweep reloads finished runs instantly (and continues
// interrupted ones mid-run) instead of re-training them. Because resumption
// is bit-identical, a resumed sweep's tables and figures match an
// uninterrupted sweep's exactly; bumping a run's round budget extends the
// stored run rather than restarting it.
type CheckpointPolicy struct {
	// Dir is the artifact-store root; empty disables checkpointing.
	Dir string
	// Every is the per-run checkpoint interval in rounds (default 1).
	Every int
	// Resume reloads each run's latest stored checkpoint before training.
	Resume bool
}

// SetCheckpointPolicy installs the artifact-store policy for subsequent
// experiment runs.
func (e *Env) SetCheckpointPolicy(p CheckpointPolicy) error {
	if p.Every < 0 {
		return fmt.Errorf("%w: checkpoint interval %d is negative", ErrExperiment, p.Every)
	}
	if p.Resume && p.Dir == "" {
		return fmt.Errorf("%w: resume requested without a checkpoint directory", ErrExperiment)
	}
	e.ckptPolicy = p
	return nil
}

// sanitizeRunName maps an arbitrary run name to a safe directory name.
func sanitizeRunName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// runFL is the artifact-store discipline around one run, runGrid's and the
// fleet experiments' alike, whatever its clients come from and however far
// its rounds overlap: newRunner builds the runner once cfg carries the run's
// checkpoint directory. A buffered run
// (cfg.Async.Buffer set) keeps updates in flight across aggregations, which
// the checkpoint format cannot hold, so it runs outside the checkpoint policy.
func (e *Env) runFL(runName string, cfg core.Config, newRunner func(core.Config) (*core.Runner, error)) (core.History, error) {
	if e.ckptPolicy.Dir != "" && cfg.Async.Buffer == 0 {
		cfg.CheckpointDir = filepath.Join(e.ckptPolicy.Dir, sanitizeRunName(runName))
		cfg.CheckpointEvery = e.ckptPolicy.Every
	}
	runner, err := newRunner(cfg)
	if err != nil {
		return core.History{}, fmt.Errorf("experiments: %s: %w", runName, err)
	}
	if e.ckptPolicy.Resume && cfg.CheckpointDir != "" {
		if _, err := runner.ResumeLatest(); err != nil && !errors.Is(err, ckpt.ErrNoCheckpoint) {
			return core.History{}, fmt.Errorf("experiments: resume %s: %w", runName, err)
		}
	}
	hist, err := runner.Run()
	if err != nil {
		return core.History{}, fmt.Errorf("experiments: %s: run: %w", runName, err)
	}
	return hist, nil
}

// NewEnv builds the experiment environment.
func NewEnv(scale Scale, seed int64) (*Env, error) {
	d, err := dims(scale)
	if err != nil {
		return nil, err
	}
	suite, err := data.NewStandardSuite(seed)
	if err != nil {
		return nil, err
	}
	return &Env{
		Scale:      scale,
		Dims:       d,
		Suite:      suite,
		Seed:       seed,
		pretrained: make(map[string]*models.Model),
	}, nil
}

// Target100 returns the "CIFAR-100" analogue sized for the scale: the full
// 100-class domain at ScaleFull, a 20-class variant at ScaleFast (the class
// count is the only difference; generative parameters match the suite's).
func (e *Env) Target100() (*data.Domain, error) {
	if e.target100 != nil {
		return e.target100, nil
	}
	if e.Dims.Target100Classes == e.Suite.Target100.Spec.NumClasses {
		e.target100 = e.Suite.Target100
		return e.target100, nil
	}
	spec := e.Suite.Target100.Spec
	spec.NumClasses = e.Dims.Target100Classes
	d, err := data.NewDomain(e.Suite.Universe, spec)
	if err != nil {
		return nil, err
	}
	e.target100 = d
	return d, nil
}

// modelSpec returns the experiment model specification for a target domain.
func (e *Env) modelSpec(numClasses int) models.Spec {
	return models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{e.Suite.Universe.ObsDim},
		NumClasses: numClasses,
		Hidden:     mlpHidden,
		InitSeed:   e.Seed + 101,
	}
}

// FreshModel builds an untrained model for a target domain.
func (e *Env) FreshModel(target *data.Domain) (*models.Model, error) {
	return models.Build(e.modelSpec(target.Spec.NumClasses))
}

// PretrainedModel returns a model for target whose feature extractor was
// pretrained on source. The expensive source training is cached per source
// domain; each call returns an independent copy with a fresh classifier.
func (e *Env) PretrainedModel(target, source *data.Domain) (*models.Model, error) {
	srcModel, ok := e.pretrained[source.Spec.Name]
	if !ok {
		rng := seeds.Source(e.Seed + 7)
		srcData, err := source.GenerateBalanced(e.Dims.PretrainSamples, rng)
		if err != nil {
			return nil, err
		}
		srcModel, err = models.Build(e.modelSpec(source.Spec.NumClasses))
		if err != nil {
			return nil, err
		}
		if _, err := core.Pretrain(srcModel, srcData, core.CentralConfig{
			Epochs:   e.Dims.PretrainEpochs,
			LR:       paperLR,
			Momentum: paperMomentum,
			Seed:     e.Seed + 8,
		}); err != nil {
			return nil, err
		}
		e.pretrained[source.Spec.Name] = srcModel
	}
	target2, err := models.Build(e.modelSpec(target.Spec.NumClasses))
	if err != nil {
		return nil, err
	}
	extractor := []string{models.GroupLow, models.GroupMid, models.GroupUp}
	if err := target2.CopyGroupStateFrom(srcModel, extractor); err != nil {
		return nil, err
	}
	return target2, nil
}

// Federation is a built client population plus datasets.
type Federation struct {
	// Clients holds the per-client datasets and device profiles.
	Clients []*core.Client
	// Pool is the union of all client data (the centralized training set).
	Pool *data.Dataset
	// Test is the held-out evaluation set.
	Test *data.Dataset
	// Alpha echoes the Dirichlet concentration used.
	Alpha float64
}

// BuildFederation generates a pool from the domain, partitions it with
// Diri(alpha) and attaches heterogeneous devices. seedSalt distinguishes
// federations built from the same Env.
//
// The small (Table II) scenario models data-rich clients; the large
// (Table III) scenario models many data-poor ones, as in the paper.
func (e *Env) BuildFederation(domain *data.Domain, numClients int, alpha float64, seedSalt int64) (*Federation, error) {
	samplesPerClient := e.Dims.SamplesPerClient
	if numClients <= e.Dims.SmallClients && e.Dims.SmallClientSamples > 0 {
		samplesPerClient = e.Dims.SmallClientSamples
	}
	return e.BuildFederationSized(domain, numClients, samplesPerClient, alpha, seedSalt)
}

// BuildFederationSized is BuildFederation with an explicit per-client sample
// count, for experiments that need to control data scarcity directly
// (Table I studies pretraining, whose benefit concentrates in the
// data-scarce regime).
func (e *Env) BuildFederationSized(domain *data.Domain, numClients, samplesPerClient int, alpha float64, seedSalt int64) (*Federation, error) {
	if numClients <= 0 || samplesPerClient <= 0 {
		return nil, fmt.Errorf("%w: %d clients × %d samples", ErrExperiment, numClients, samplesPerClient)
	}
	rng := seeds.Source(e.Seed + 1000 + seedSalt)
	pool, err := domain.GenerateBalanced(numClients*samplesPerClient, rng)
	if err != nil {
		return nil, err
	}
	test, err := domain.GenerateBalanced(e.Dims.TestSamples, rng)
	if err != nil {
		return nil, err
	}
	minSize := samplesPerClient / 10
	if minSize < 5 {
		minSize = 5
	}
	parts, err := partition.Dirichlet(pool.Y, numClients, alpha, minSize, rng)
	if err != nil {
		return nil, err
	}
	devices, err := simtime.NewHeterogeneousDevices(numClients, deviceMedianFLOPS, deviceSigma, rng)
	if err != nil {
		return nil, err
	}
	clients := make([]*core.Client, numClients)
	for i, idxs := range parts {
		ds, err := pool.Subset(idxs)
		if err != nil {
			return nil, err
		}
		clients[i] = &core.Client{ID: i, Data: ds, Device: devices[i]}
	}
	return &Federation{Clients: clients, Pool: pool, Test: test, Alpha: alpha}, nil
}

// hashName derives a stable salt from a method name.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
