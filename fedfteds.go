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
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the paper-reproduction results.
package fedfteds

import (
	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/federation"
	"fedfteds/internal/fleet"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/opt"
	"fedfteds/internal/partition"
	"fedfteds/internal/relay"
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
	// FinetunePart selects the trainable portion of the model.
	FinetunePart = models.FinetunePart
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
func BuildModel(spec ModelSpec) (*Model, error) { return models.Build(spec) }

// Datasets and synthetic domains.
type (
	// Dataset is an in-memory labeled dataset.
	Dataset = data.Dataset
	// Domain is a sampleable synthetic classification task.
	Domain = data.Domain
	// DomainSpec configures a synthetic domain.
	DomainSpec = data.DomainSpec
	// Universe is the shared generative structure behind a domain family.
	Universe = data.Universe
	// DomainSuite bundles the standard experiment domains.
	DomainSuite = data.StandardSuite
	// BatchIter streams shuffled minibatches into reused buffers; the
	// allocation-free counterpart of Dataset.Batches.
	BatchIter = data.BatchIter
)

// NewDomainSuite builds the standard domain family (source, close targets,
// far target) from one seed.
func NewDomainSuite(seed int64) (*DomainSuite, error) { return data.NewStandardSuite(seed) }

// Non-IID partitioning.

// DirichletPartition splits label indices across clients with Diri(alpha)
// label skew, guaranteeing at least minSize samples per client.
var DirichletPartition = partition.Dirichlet

// IIDPartition splits indices uniformly.
var IIDPartition = partition.IID

// Data selection.
type (
	// Selector picks each client's per-round training subset.
	Selector = selection.Selector
	// EntropySelector is the paper's EDS with hardened softmax.
	EntropySelector = selection.Entropy
	// RandomSelector is the RDS baseline.
	RandomSelector = selection.Random
	// AllSelector uses every local sample.
	AllSelector = selection.All
	// MarginSelector picks the smallest top-2-margin samples.
	MarginSelector = selection.Margin
)

// Federated engine.
type (
	// Config describes one federated run.
	Config = core.Config
	// Client is one federated participant.
	Client = core.Client
	// Runner orchestrates a federated run.
	Runner = core.Runner
	// History is a run's outcome.
	History = core.History
	// CentralConfig configures centralized training / pretraining.
	CentralConfig = core.CentralConfig
	// LocalOutcome is one client-side round result.
	LocalOutcome = core.LocalOutcome
)

// Aggregation weighting constants (paper Eq. 5 uses WeightBySelected).
const (
	WeightBySelected  = core.WeightBySelected
	WeightByLocalSize = core.WeightByLocalSize
	WeightUniform     = core.WeightUniform
)

// Federated-optimization strategies (internal/strategy): a Strategy owns
// the aggregation weighting, the server-side optimizer that applies the
// weighted client average, and an optional client-side objective hook. Set
// Config.Strategy in the simulator, or `-strategy` on fedserver/fedsim.
type (
	// Strategy is the server-side algorithm plugin both engines orchestrate.
	Strategy = strategy.Strategy
	// StatefulStrategy is implemented by strategies with checkpointable
	// server-optimizer state (FedAvgM, FedAdam, FedYogi).
	StatefulStrategy = strategy.Stateful
	// StrategyUpdate describes one client update for aggregation weighting.
	StrategyUpdate = strategy.Update
	// LocalHook is a strategy's client-side objective twist (e.g. FedProx).
	LocalHook = strategy.LocalHook
	// ProxHook is the FedProx proximal local hook.
	ProxHook = strategy.Prox
	// CompositeStrategy composes a weighting, server optimizer and hook;
	// every shipped strategy is one.
	CompositeStrategy = strategy.Composite
	// ServerOptimizer applies a round's weighted client average to the
	// global model (overwrite, momentum, adam, yogi).
	ServerOptimizer = opt.ServerOpt
)

// Strategy constructors and helpers.
var (
	// ParseStrategy maps a CLI spec ("fedadam:lr=0.05,beta1=0.9") to a
	// fresh Strategy; the names are shared by fedsim and fedserver.
	ParseStrategy = strategy.Parse
	// StrategyNames lists the flag-constructible strategy identifiers.
	StrategyNames = strategy.Names
	// NewStrategy composes a custom strategy from its parts.
	NewStrategy = strategy.New
	// FedAvgStrategy is the default: selected-size weighting, overwrite.
	FedAvgStrategy = strategy.FedAvg
	// FedProxStrategy is FedAvg with the proximal local hook.
	FedProxStrategy = strategy.FedProx
	// FedAvgMStrategy applies the aggregate through server momentum.
	FedAvgMStrategy = strategy.FedAvgM
	// FedAdamStrategy and FedYogiStrategy apply it through adaptive moments.
	FedAdamStrategy = strategy.FedAdam
	FedYogiStrategy = strategy.FedYogi
)

// NewRunner validates a configuration and builds a runner.
func NewRunner(cfg Config, global *Model, clients []*Client, test *Dataset) (*Runner, error) {
	return core.NewRunner(cfg, global, clients, test)
}

// Virtual client fleet (internal/fleet): populations that exist as per-client
// seeds plus cheap descriptors, with datasets materialized lazily when a round
// selects a client and returned to a bounded reuse pool afterwards — resident
// memory is O(cohort + pool), not O(population), so million-client simulated
// days fit in one process (see DESIGN.md "Virtual fleet").
type (
	// ClientSource abstracts where a Runner's clients come from; a Fleet is
	// one, and NewRunner's eager slice is adapted to another internally.
	ClientSource = core.ClientSource
	// ClientDesc is the cheap per-client metadata a source exposes without
	// materializing the client's dataset.
	ClientDesc = core.ClientDesc
	// Fleet is a virtual client population with a bounded materialization pool.
	Fleet = fleet.Fleet
	// FleetSpec describes a virtual population (seed, sizes, non-IID alpha,
	// device distribution, similarity clusters, pool capacity).
	FleetSpec = fleet.Spec
	// FleetStats counts the pool's materialization traffic.
	FleetStats = fleet.Stats
	// FleetTrace is a parsed fleettrace v1 availability trace.
	FleetTrace = fleet.Trace
)

// Fleet constructors and helpers.
var (
	// NewFleet registers a virtual population from its spec.
	NewFleet = fleet.New
	// ParseFleetTrace parses fleettrace v1 text; LoadFleetTrace reads a file.
	ParseFleetTrace = fleet.ParseTrace
	LoadFleetTrace  = fleet.LoadTrace
	// EstimateFleetEagerBytes estimates what materializing a population
	// eagerly would cost (the fedsim -clients fail-fast uses it).
	EstimateFleetEagerBytes = fleet.EstimateEagerBytes
)

// NewRunnerWithSource builds a runner whose clients come from a ClientSource
// (e.g. a Fleet) instead of an in-memory slice.
func NewRunnerWithSource(cfg Config, global *Model, src ClientSource, test *Dataset) (*Runner, error) {
	return core.NewRunnerWithSource(cfg, global, src, test)
}

// Checkpoint/resume (internal/ckpt + core run state). A run with
// Config.CheckpointDir set writes a versioned, checksummed checkpoint every
// Config.CheckpointEvery rounds; a fresh Runner restored from it continues
// the run bit-identically (see DESIGN.md "Checkpointing").
type (
	// RunState is the complete resumable state of a federated run at a
	// round boundary.
	RunState = core.RunState
	// CheckpointSection is one named payload inside a checkpoint file.
	CheckpointSection = ckpt.Section
	// StatefulScheduler is implemented by schedulers whose state must ride
	// along in checkpoints (e.g. Availability's churn chain).
	StatefulScheduler = sched.Stateful
)

// Checkpoint error sentinels: ErrCorruptCheckpoint covers every structural
// failure (truncation, bit flips, checksum or version mismatch);
// ErrNoCheckpoint reports an empty checkpoint directory.
var (
	ErrCorruptCheckpoint = ckpt.ErrCorrupt
	ErrNoCheckpoint      = ckpt.ErrNoCheckpoint
)

// Checkpoint file helpers.
var (
	// SaveRunState writes a run state to a path atomically.
	SaveRunState = core.SaveRunState
	// LoadRunState reads and fully validates one checkpoint file.
	LoadRunState = core.LoadRunState
	// LoadLatestRunState loads the newest valid checkpoint in a directory.
	LoadLatestRunState = core.LoadLatestRunState
	// CheckpointPath returns the canonical checkpoint filename for a round.
	CheckpointPath = ckpt.Path
)

// TrainCentralized trains a model centrally (the paper's upper bound).
var TrainCentralized = core.TrainCentralized

// Pretrain trains the full model on a source domain.
var Pretrain = core.Pretrain

// PretrainTransfer pretrains on a source dataset and transfers the feature
// extractor into a fresh model for the target label space.
var PretrainTransfer = core.PretrainTransfer

// LocalUpdate runs one client-side round (used by distributed clients).
var LocalUpdate = core.LocalUpdate

// NewLocalConfig applies defaults and validates a config for standalone
// LocalUpdate use in distributed clients.
var NewLocalConfig = core.NewLocalConfig

// Distributed wire protocol (what cmd/fedserver and cmd/fedclient speak,
// also runnable in-process over pipes).
type (
	// Conn is one message-oriented connection between client and server.
	Conn = comm.Conn
	// Listener accepts federated clients.
	Listener = comm.Listener
	// PipeListener runs the wire protocol in-process.
	PipeListener = comm.PipeListener
	// ServerSession is the server half of the protocol.
	ServerSession = comm.ServerSession
	// ClientSession is the client half of the protocol.
	ClientSession = comm.ClientSession
	// RoundEngine drives deadline-aware, quorum-based federated rounds.
	RoundEngine = comm.RoundEngine
	// EngineConfig tunes the round engine's fault tolerance.
	EngineConfig = comm.EngineConfig
	// RoundOutcome reports one distributed round's participation.
	RoundOutcome = comm.RoundOutcome
	// StreamAggregator folds updates into per-tensor weighted sums as they
	// arrive: whole-state, or per layer over the groups each update covers.
	StreamAggregator = comm.StreamAggregator
	// RoundStart instructs a client to run one local round.
	RoundStart = comm.RoundStart
	// ClientUpdate carries a client's trained state to the server.
	ClientUpdate = comm.ClientUpdate
	// Welcome acknowledges a client's registration.
	Welcome = comm.Welcome
)

// The distributed round, written once (internal/federation): the server loop
// cmd/fedserver runs and the client round cmd/fedclient answers it with,
// over any Listener/Conn — TCP, or in-process pipes.
type (
	// ServerConfig is one server run: rounds, quorum, cohort, strategy, and
	// the relay/async/tier/codec modes.
	ServerConfig = federation.Config
	// ParticipantConfig is one client's local configuration.
	ParticipantConfig = federation.ClientConfig
)

var (
	// ServeFederation accepts the participants and drives every round to
	// completion, returning the run's History.
	ServeFederation = federation.Serve
	// JoinParticipant registers a client; its Run answers every round until
	// the server shuts the session down.
	JoinParticipant = federation.Join
)

// Uplink codecs (internal/comm): pluggable wire encodings for client
// updates, negotiated at Hello time (the server advertises, the client
// adopts or pins). The identity codec is bit-identical to legacy frames;
// float16 and int8 quantize stochastically under a deterministic per-
// (round, client) seed; topk sparsifies with client-side error feedback.
type (
	// Codec encodes and decodes tensor payloads for the uplink wire.
	Codec = comm.Codec
	// ResidualCarrier is implemented by codecs with checkpointable
	// client-side state (topk's error-feedback residual).
	ResidualCarrier = comm.ResidualCarrier
)

// CodecIdentity names the lossless legacy-frame codec.
const CodecIdentity = comm.CodecIdentity

// Codec constructors and helpers.
var (
	// ParseCodec maps a CLI spec ("int8", "topk:0.05") to a fresh codec;
	// the names are shared by every binary's -codec flag.
	ParseCodec = comm.ParseCodec
	// CodecNames lists the flag-constructible codec identifiers.
	CodecNames = comm.CodecNames
	// PickCodec resolves a client's codec choice against the server's
	// Welcome advertisement ("auto" adopts, explicit must match).
	PickCodec = comm.PickCodec
	// CodecSeed derives the deterministic quantization seed for one
	// (round, client) encode from the federation seed.
	CodecSeed = comm.CodecSeed
)

// Distributed-mode constructors and helpers.
var (
	// NewPipeListener creates n in-process protocol pipe pairs.
	NewPipeListener = comm.NewPipeListener
	// AcceptClients registers the expected number of clients.
	AcceptClients = comm.AcceptClients
	// JoinFederation registers one client with a server.
	JoinFederation = comm.Join
	// NewRoundEngine wraps a server session in the fault-tolerant engine.
	NewRoundEngine = comm.NewRoundEngine
	// NewStreamAggregator starts an empty O(state) aggregator.
	NewStreamAggregator = comm.NewStreamAggregator
	// EncodeTensors serializes model state for the wire.
	EncodeTensors = comm.EncodeTensors
	// DecodeTensors reverses EncodeTensors.
	DecodeTensors = comm.DecodeTensors
	// ListenTCP starts a federation listener.
	ListenTCP = comm.ListenTCP
	// DialTCP connects to a fedserver.
	DialTCP = comm.DialTCP
	// DialTCPRetry re-dials a refused connection with exponential backoff.
	DialTCPRetry = comm.DialTCPRetry
)

// Hierarchical & buffered-async aggregation (internal/relay, internal/comm):
// fedrelay-style mid-tier region folds and the FedBuff-style AsyncEngine.
type (
	// RegionUpdate carries one relay region's folded delta upstream.
	RegionUpdate = comm.RegionUpdate
	// RelayConfig shapes one relay process.
	RelayConfig = relay.Config
	// AsyncEngine aggregates version-stamped updates FedBuff-style.
	AsyncEngine = comm.AsyncEngine
	// AsyncEngineConfig tunes the buffered-async engine.
	AsyncEngineConfig = comm.AsyncConfig
	// Admitter re-admits reconnecting peers at round boundaries.
	Admitter = comm.Admitter
	// StalenessWeigher discounts an update by its staleness in versions.
	StalenessWeigher = strategy.StalenessWeigher
)

// Hierarchical/async constructors and helpers.
var (
	// RunRelay drives one relay region to completion.
	RunRelay = relay.Run
	// JoinRelay registers a relay (not a leaf) with the root server.
	JoinRelay = comm.JoinRelay
	// NewAsyncEngine wraps a server session in buffered-async aggregation.
	NewAsyncEngine = comm.NewAsyncEngine
	// NewAdmitter accepts and handshakes reconnecting peers in the background.
	NewAdmitter = comm.NewAdmitter
	// ParseStaleness parses a staleness-weigher spec (e.g. "poly:alpha=1").
	ParseStaleness = strategy.ParseStaleness
	// StalenessNames lists the staleness-weigher vocabulary.
	StalenessNames = strategy.StalenessNames
	// IdentityStaleness keeps every update at full weight.
	IdentityStaleness = strategy.IdentityStaleness
	// InvSqrtStaleness is the canonical FedBuff 1/sqrt(1+s) discount.
	InvSqrtStaleness = strategy.InvSqrtStaleness
)

// Cohort scheduling (internal/sched): per round the server samples K
// clients from the pool; straggler and fault-tolerance policies then apply
// within the cohort. Set Config.Scheduler/Config.CohortSize in the
// simulator, or RoundEngine.RunCohort in the distributed engine.
type (
	// Scheduler samples the per-round client cohort.
	Scheduler = sched.Scheduler
	// Candidate describes one client eligible for a round.
	Candidate = sched.Candidate
	// UniformRandom samples the cohort uniformly (FedAvg-style).
	UniformRandom = sched.UniformRandom
	// SizeWeighted samples clients proportionally to their dataset size.
	SizeWeighted = sched.SizeWeighted
	// EntropyUtility exploits high mean-EDS-entropy clients with ε-greedy
	// exploration.
	EntropyUtility = sched.EntropyUtility
	// PowerOfD samples d·K candidates and keeps the K fastest.
	PowerOfD = sched.PowerOfD
	// Availability composes any inner policy with client churn (Markov
	// on/off process or replayed trace).
	Availability = sched.Availability
	// UtilityTracker stores the per-client utility feedback loop.
	UtilityTracker = sched.Tracker
)

// ParseScheduler maps the shared CLI policy names (uniform, size, entropy,
// powerd, tier, avail:<inner>) to a Scheduler.
var ParseScheduler = sched.Parse

// NewUtilityTracker starts an empty client-utility feedback store.
var NewUtilityTracker = sched.NewTracker

// Devices and stragglers.
type (
	// Device models a client's compute speed.
	Device = simtime.Device
	// StragglerPolicy decides which sampled clients complete a round.
	StragglerPolicy = simtime.StragglerPolicy
	// FractionParticipation keeps a random client fraction per round.
	FractionParticipation = simtime.FractionParticipation
	// DeadlineStraggler drops clients that exceed a round deadline.
	DeadlineStraggler = simtime.DeadlineStraggler
)

// NewHeterogeneousDevices draws a lognormal device population.
var NewHeterogeneousDevices = simtime.NewHeterogeneousDevices

// Device capability tiers (internal/device): per-client partial training.
// A Distribution assigns capability profiles deterministically; each
// profile's layer mask caps how deep that client trains, and the engines
// aggregate per layer. Set Config.TierDist in the simulator, or
// -tiers/-tier-dist on fedserver and fedclient.
type (
	// DeviceProfile is one capability class (compute factor, memory
	// fraction, battery level) and the layer mask it affords.
	DeviceProfile = device.Profile
	// TierDistribution is a weighted mix of tiers with a deterministic
	// per-client assignment.
	TierDistribution = device.Distribution
)

// Tier helpers.
var (
	// ParseDistribution parses "tier:weight,..." specs (e.g. "low:1,full:1").
	ParseDistribution = device.ParseDistribution
	// LookupTier resolves a built-in tier name to its profile.
	LookupTier = device.Lookup
	// TierNames lists the built-in tiers, least to most capable.
	TierNames = device.TierNames
	// JoinTieredFederation registers a client with its capability tier.
	JoinTieredFederation = comm.JoinTiered
	// NewMaskedStreamAggregator starts a StreamAggregator that folds masked
	// updates per layer: each group is averaged only over the clients that
	// shipped it.
	NewMaskedStreamAggregator = comm.NewMaskedStreamAggregator
)

// Metrics.

// Accuracy is top-1 accuracy of a model on a dataset.
var Accuracy = metrics.Accuracy

// LinearCKA is the linear Centered Kernel Alignment between representations.
var LinearCKA = metrics.LinearCKA

// Experiments (the paper's tables and figures).
type (
	// ExperimentEnv is the shared experiment environment.
	ExperimentEnv = experiments.Env
	// ExperimentScale sizes experiments (smoke / fast / full).
	ExperimentScale = experiments.Scale
)

// Experiment scales.
const (
	ScaleSmoke = experiments.ScaleSmoke
	ScaleFast  = experiments.ScaleFast
	ScaleFull  = experiments.ScaleFull
)

// CheckpointPolicy turns an experiment environment's checkpoint directory
// into a resumable artifact store (install with Env.SetCheckpointPolicy).
type CheckpointPolicy = experiments.CheckpointPolicy

// NewExperimentEnv builds the experiment environment for a scale and seed.
func NewExperimentEnv(scale ExperimentScale, seed int64) (*ExperimentEnv, error) {
	return experiments.NewEnv(scale, seed)
}
