// Package fedfteds is the public API of the FedFT-EDS library: federated
// learning with client-workload reduction through partial training of client
// models (federated fine-tuning atop a frozen, pretrained feature extractor)
// and entropy-based data selection with a hardened softmax.
//
// The package re-exports the library's building blocks as aliases so
// downstream users program against one import:
//
//	model, _ := fedfteds.BuildModel(fedfteds.ModelSpec{...})
//	runner, _ := fedfteds.NewRunner(cfg, model, clients, test)
//	history, _ := runner.Run()
//
// It lists what the examples, the root tests and the documented snippets
// use, plus the siblings that complete an enum family; everything else lives
// in the internal packages the binaries program against. See the examples/
// directory for complete programs, DESIGN.md for the architecture, and
// EXPERIMENTS.md for the paper-reproduction results.
package fedfteds

import (
	"fedfteds/internal/ckpt"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/fleet"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/partition"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// Model building.
type (
	// Model is a group-structured network (low / mid / up / classifier).
	Model = models.Model
	// ModelSpec fully determines a model build.
	ModelSpec = models.Spec
)

// Model architecture and finetune-part constants.
const (
	ArchMLP = models.ArchMLP
	ArchWRN = models.ArchWRN

	FinetuneFull       = models.FinetuneFull
	FinetuneLarge      = models.FinetuneLarge
	FinetuneModerate   = models.FinetuneModerate
	FinetuneClassifier = models.FinetuneClassifier
)

// BuildModel constructs a model from its spec.
var BuildModel = models.Build

// Dataset is an in-memory labeled dataset.
type Dataset = data.Dataset

// NewDomainSuite builds the standard synthetic domain family (source, close
// targets, far target) from one seed.
var NewDomainSuite = data.NewStandardSuite

// DirichletPartition splits label indices across clients with Diri(alpha)
// label skew, guaranteeing at least minSize samples per client.
var DirichletPartition = partition.Dirichlet

// EntropySelector is the paper's data selection (EDS) with hardened softmax.
type EntropySelector = selection.Entropy

// Federated engine.
type (
	// Config describes one federated run.
	Config = core.Config
	// Client is one federated participant.
	Client = core.Client
	// CentralConfig configures centralized training / pretraining.
	CentralConfig = core.CentralConfig
)

// Federated-optimization strategies (internal/strategy): a strategy owns
// the aggregation weighting, the server-side optimizer that applies the
// weighted client average, and an optional client-side objective hook. Set
// Config.Strategy in the simulator, or `-strategy` on fedserver/fedsim.
var (
	// ParseStrategy maps a CLI spec ("fedadam:lr=0.05,beta1=0.9") to a
	// fresh strategy; the names are shared by fedsim and fedserver.
	ParseStrategy = strategy.Parse
)

// NewRunner validates a configuration and builds a runner over an in-memory
// client slice.
var NewRunner = core.NewRunner

// Virtual client fleet (internal/fleet): populations that exist as per-client
// seeds plus cheap descriptors, with datasets materialized lazily when a round
// selects a client and returned to a bounded reuse pool afterwards — resident
// memory is O(cohort + pool), not O(population), so million-client simulated
// days fit in one process (see DESIGN.md "Virtual fleet").

// FleetSpec describes a virtual population (seed, sizes, non-IID alpha,
// device distribution, similarity clusters, pool capacity).
type FleetSpec = fleet.Spec

// NewFleet registers a virtual population from its spec.
var NewFleet = fleet.New

// NewRunnerWithSource builds a runner whose clients come from a client source
// (e.g. a fleet) instead of an in-memory slice.
var NewRunnerWithSource = core.NewRunnerWithSource

// ErrNoCheckpoint reports an empty checkpoint directory. A run with
// Config.CheckpointDir set writes a versioned, checksummed checkpoint every
// Config.CheckpointEvery rounds; a fresh runner restored from it
// (Runner.ResumeLatest) continues the run bit-identically (see DESIGN.md
// "Checkpointing").
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// TrainCentralized trains a model centrally (the paper's upper bound).
var TrainCentralized = core.TrainCentralized

// PretrainTransfer pretrains on a source dataset and transfers the feature
// extractor into a fresh model for the target label space.
var PretrainTransfer = core.PretrainTransfer

// EntropyUtility is a cohort scheduler (internal/sched): it exploits
// clients with a high mean EDS entropy, with ε-greedy exploration. Set
// Config.Scheduler and Config.CohortSize in the simulator, or
// `-sched`/`-cohort` on fedserver.
type EntropyUtility = sched.EntropyUtility

// NewHeterogeneousDevices draws a lognormal device population.
var NewHeterogeneousDevices = simtime.NewHeterogeneousDevices

// ParseDistribution parses a device-tier distribution spec ("tier:weight,...",
// e.g. "low:1,full:1") for Config.TierDist: each client is deterministically
// assigned a capability tier whose layer mask caps how deep it trains, and
// the engines aggregate per layer.
var ParseDistribution = device.ParseDistribution

// Metrics.

// Accuracy is top-1 accuracy of a model on a dataset.
var Accuracy = metrics.Accuracy

// LinearCKA is the linear Centered Kernel Alignment between representations.
var LinearCKA = metrics.LinearCKA

// Experiment scales (the paper's tables and figures run at one of these).
const (
	ScaleSmoke = experiments.ScaleSmoke
	ScaleFast  = experiments.ScaleFast
	ScaleFull  = experiments.ScaleFull
)

// NewExperimentEnv builds the experiment environment for a scale and seed.
var NewExperimentEnv = experiments.NewEnv
