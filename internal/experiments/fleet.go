package experiments

import (
	"fmt"
	"strings"

	"fedfteds/internal/core"
	"fedfteds/internal/fleet"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/tensor"
)

// Fleet experiment constants. Sample counts are fixed rather than
// scale-derived: the virtual fleet's point is population scale, and a
// million data-rich clients would defeat the bounded-memory headline the
// experiment exists to measure.
const (
	fleetMinSamples = 10
	fleetMaxSamples = 30
	fleetAlpha      = 0.3
	fleetClusters   = 8
	// fleetDayRounds is one simulated day at one aggregation per hour.
	fleetDayRounds = 24
)

// FleetOptions parameterizes the fleet experiments.
type FleetOptions struct {
	// Clients is the fleet population; 0 picks the scale default
	// (300/2000/10000 for smoke/fast/full).
	Clients int
	// Cohort is the per-round cohort (and async in-flight window); 0 derives
	// one from the population.
	Cohort int
	// Policy is the scheduler spec for the cohort choice (default
	// "cluster:uniform", the similarity-aware policy).
	Policy string
	// TracePath replays availability from a fleettrace file; empty uses the
	// built-in diurnal day/night trace.
	TracePath string
	// Buffer switches the day run to buffered-asynchronous aggregation with
	// this buffer size; 0 runs the synchronous (checkpointable) engine.
	Buffer int
	// MaxStaleness is the async discard cap; negative keeps every update.
	MaxStaleness int
	// Eager materializes the whole fleet up front (the O(N) baseline the
	// virtual fleet exists to avoid). Callers must size-check first —
	// FleetEagerBytes estimates the cost.
	Eager bool
}

// FleetEagerBytes estimates the resident bytes of materializing an n-client
// fleet eagerly under the experiment sizing (the standard suite's 64-dim
// observations). fedsim's -clients fail-fast is driven by this estimate.
func FleetEagerBytes(clients int) int64 {
	return fleet.EstimateEagerBytes(clients, fleetMinSamples, fleetMaxSamples, 64)
}

// fleetScaleClients returns the default population for a scale.
func fleetScaleClients(s Scale) int {
	switch s {
	case ScaleSmoke:
		return 300
	case ScaleFast:
		return 2000
	default:
		return 10000
	}
}

// fleetSpec assembles the virtual-fleet spec for a population size.
func (e *Env) fleetSpec(clients, cohort int) fleet.Spec {
	clusters := fleetClusters
	if clients < 2*fleetClusters {
		clusters = 2
	}
	return fleet.Spec{
		Clients: clients, Seed: e.Seed + 2000, Domain: e.Suite.Target10,
		MinSamples: fleetMinSamples, MaxSamples: fleetMaxSamples, Alpha: fleetAlpha,
		MedianFLOPS: deviceMedianFLOPS, Sigma: deviceSigma,
		Clusters: clusters, PoolSize: 2 * cohort,
	}
}

// fleetConfig is the fleet experiments' run configuration: the baseline with
// the whole model trained (a fleet starts from a fresh model, not a
// pretrained extractor) and a cohort of the population scheduled per round.
func (e *Env) fleetConfig(clients, cohort int, scheduler sched.Scheduler) core.Config {
	cfg := e.baseConfig(tensor.DeriveSeed(uint64(e.Seed), uint64(clients), 0xF1EE7DA1))
	cfg.FinetunePart = models.FinetuneFull
	cfg.Scheduler, cfg.CohortSize = scheduler, cohort
	return cfg
}

// fleetCohort derives the default cohort from the population.
func fleetCohort(clients int) int {
	k := clients / 16
	if k < 4 {
		k = 4
	}
	if k > 64 {
		k = 64
	}
	return k
}

// fleetScheduler parses the policy and wraps it with trace availability.
func fleetScheduler(opts FleetOptions, clients int) (sched.Scheduler, *fleet.Trace, error) {
	name := opts.Policy
	if name == "" {
		name = "cluster:uniform"
	}
	inner, err := sched.Parse(name)
	if err != nil {
		return nil, nil, err
	}
	var tr *fleet.Trace
	if opts.TracePath != "" {
		tr, err = fleet.LoadTrace(opts.TracePath)
	} else {
		tr, err = fleet.ParseTrace(fleet.DiurnalTraceText(clients))
	}
	if err != nil {
		return nil, nil, err
	}
	return tr.Scheduler(inner), tr, nil
}

// FleetDayResult is the headline experiment's outcome: a simulated day over
// an N-client virtual fleet in O(cohort) memory.
type FleetDayResult struct {
	// Clients is the fleet population; Cohort the per-round cohort.
	Clients, Cohort int
	// Policy is the effective scheduler name (trace fingerprint included).
	Policy string
	// Async reports the buffered-asynchronous engine was used, with Buffer.
	Async  bool
	Buffer int
	// Hist is the day's run history.
	Hist core.History
	// Stats is the client pool's lifecycle accounting for the run.
	Stats fleet.Stats
	// Fingerprint identifies the fleet population (rides every checkpoint).
	Fingerprint string
	// EagerBytes estimates what materializing the fleet up front would cost.
	EagerBytes int64
}

// RunFleetDay runs the headline "simulated day" experiment: fleetDayRounds
// hourly aggregations over an N-client virtual fleet with diurnal (or
// replayed) availability and similarity-aware cohort scheduling. Clients
// exist as seeds until scheduled; resident memory stays O(cohort) however
// large N is. With Buffer > 0 the day runs on the event-driven buffered-async
// engine (rounds overlap); otherwise the synchronous engine runs and the
// day is checkpointable/resumable under the environment's policy. Eager runs
// the same day, buffered or not, over every client materialized up front.
func RunFleetDay(env *Env, opts FleetOptions) (*FleetDayResult, error) {
	clients := opts.Clients
	if clients <= 0 {
		clients = fleetScaleClients(env.Scale)
	}
	cohort := opts.Cohort
	if cohort <= 0 {
		cohort = fleetCohort(clients)
	}
	if cohort > clients {
		return nil, fmt.Errorf("%w: cohort %d exceeds the %d-client fleet", ErrExperiment, cohort, clients)
	}
	scheduler, _, err := fleetScheduler(opts, clients)
	if err != nil {
		return nil, err
	}

	spec := env.fleetSpec(clients, cohort)
	f, err := fleet.New(spec)
	if err != nil {
		return nil, err
	}
	test, err := env.Suite.Target10.GenerateBalanced(env.Dims.TestSamples, tensor.NewRand(uint64(env.Seed), 0xF1EE7E57))
	if err != nil {
		return nil, err
	}
	global, err := env.FreshModel(env.Suite.Target10)
	if err != nil {
		return nil, err
	}
	cfg := env.fleetConfig(clients, cohort, scheduler)
	cfg.Rounds = fleetDayRounds

	res := &FleetDayResult{
		Clients: clients, Cohort: cohort, Policy: scheduler.Name(),
		Async: opts.Buffer > 0, Buffer: opts.Buffer,
		Fingerprint: f.Fingerprint(),
		EagerBytes:  fleet.EstimateEagerBytes(clients, spec.MinSamples, spec.MaxSamples, env.Suite.Universe.ObsDim),
	}
	runName := fmt.Sprintf("fleetday-n%d-k%d-%s", clients, cohort, scheduler.Name())
	if opts.Buffer > 0 {
		cfg.Async = core.AsyncConfig{Buffer: opts.Buffer, MaxStaleness: opts.MaxStaleness}
	}
	newRunner := func(cfg core.Config) (*core.Runner, error) {
		return core.NewRunnerWithSource(cfg, global, f, test)
	}
	if opts.Eager {
		// The O(N) baseline: every virtual client materialized up front. A
		// fleet-backed run over the same spec is bit-identical (the sources
		// agree client for client), so this row exists for the memory contrast.
		eager, err := f.MaterializeAll()
		if err != nil {
			return nil, err
		}
		runName += "-eager"
		newRunner = func(cfg core.Config) (*core.Runner, error) {
			return core.NewRunner(cfg, global, eager, test)
		}
	}
	if res.Hist, err = env.runFL(runName, cfg, newRunner); err != nil {
		return nil, err
	}
	res.Stats = f.Stats()
	return res, nil
}

// Render prints the day run: the headline sizing, the pool's lifecycle
// accounting (the O(cohort) evidence), and the hourly learning curve.
func (r *FleetDayResult) Render() string {
	var b strings.Builder
	engine := "synchronous"
	if r.Async {
		engine = fmt.Sprintf("buffered-async (buffer %d)", r.Buffer)
	}
	fmt.Fprintf(&b, "Virtual-fleet day: %d clients, cohort %d, %s, %s engine\n",
		r.Clients, r.Cohort, r.Policy, engine)
	fmt.Fprintf(&b, "fleet fingerprint %s; eager materialization would need ~%.1f GiB\n",
		r.Fingerprint, float64(r.EagerBytes)/(1<<30))
	fmt.Fprintf(&b, "pool: %d materializations, %d hits, %d evictions, peak %d resident\n",
		r.Stats.Materializations, r.Stats.Hits, r.Stats.Evictions, r.Stats.PeakResident)
	fmt.Fprintf(&b, "%5s %9s %9s %12s %14s\n", "hour", "cohort", "test acc", "train loss", "client-seconds")
	for _, rec := range r.Hist.Records {
		fmt.Fprintf(&b, "%5d %9d %8.2f%% %12.4f %14.4g\n",
			rec.Round, rec.CohortSize, 100*rec.TestAccuracy, rec.MeanTrainLoss, rec.CumTrainSeconds)
	}
	fmt.Fprintf(&b, "best %.2f%%, final %.2f%%, %.4g simulated client-seconds\n",
		100*r.Hist.BestAccuracy, 100*r.Hist.FinalAccuracy, r.Hist.TotalTrainSeconds)
	return b.String()
}

// FleetRow is one policy's outcome in the fleet comparison.
type FleetRow struct {
	// Policy is the row's label.
	Policy string
	// Hist is the run history.
	Hist core.History
	// Stats is the pool accounting for the row's run.
	Stats fleet.Stats
}

// FleetCompareResult compares cohort policies over one virtual fleet:
// uniform sampling, similarity-aware cluster sampling, and cluster sampling
// under the diurnal availability trace.
type FleetCompareResult struct {
	// Rows holds one entry per policy.
	Rows []FleetRow
	// Clients and Cohort echo the shared sizing.
	Clients, Cohort int
}

// RunFleetCompare runs the fleet policy sweep: every row shares the fleet
// spec (same fingerprint, same virtual population), the model initialization
// and the seed; only the cohort choice differs.
func RunFleetCompare(env *Env, opts FleetOptions) (*FleetCompareResult, error) {
	clients := opts.Clients
	if clients <= 0 {
		clients = fleetScaleClients(env.Scale)
	}
	cohort := opts.Cohort
	if cohort <= 0 {
		cohort = fleetCohort(clients)
	}
	test, err := env.Suite.Target10.GenerateBalanced(env.Dims.TestSamples, tensor.NewRand(uint64(env.Seed), 0xF1EE7E57))
	if err != nil {
		return nil, err
	}

	type rowSpec struct {
		label string
		build func() (sched.Scheduler, error)
	}
	rows := []rowSpec{
		{"uniform", func() (sched.Scheduler, error) { return sched.UniformRandom{}, nil }},
		{"cluster:uniform", func() (sched.Scheduler, error) {
			return sched.ClusterSampling{Inner: sched.UniformRandom{}}, nil
		}},
		{"trace+cluster", func() (sched.Scheduler, error) {
			s, _, err := fleetScheduler(FleetOptions{Policy: "cluster:uniform", TracePath: opts.TracePath}, clients)
			return s, err
		}},
	}

	res := &FleetCompareResult{Clients: clients, Cohort: cohort}
	for _, row := range rows {
		scheduler, err := row.build()
		if err != nil {
			return nil, err
		}
		f, err := fleet.New(env.fleetSpec(clients, cohort))
		if err != nil {
			return nil, err
		}
		global, err := env.FreshModel(env.Suite.Target10)
		if err != nil {
			return nil, err
		}
		hist, err := env.runFL(fmt.Sprintf("fleet-%s-n%d-k%d", row.label, clients, cohort),
			env.fleetConfig(clients, cohort, scheduler), func(cfg core.Config) (*core.Runner, error) {
				return core.NewRunnerWithSource(cfg, global, f, test)
			})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FleetRow{Policy: row.label, Hist: hist, Stats: f.Stats()})
	}
	return res, nil
}

// Render prints the comparison: accuracy, simulated client-seconds, and the
// pool accounting per policy.
func (r *FleetCompareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Virtual-fleet policy comparison: cohort %d of %d virtual clients\n", r.Cohort, r.Clients)
	fmt.Fprintf(&b, "%-16s %9s %9s %14s %8s %6s %10s\n",
		"policy", "best acc", "final acc", "client-seconds", "mater.", "hits", "peak res.")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %8.2f%% %8.2f%% %14.4g %8d %6d %10d\n",
			row.Policy, 100*row.Hist.BestAccuracy, 100*row.Hist.FinalAccuracy,
			row.Hist.TotalTrainSeconds, row.Stats.Materializations, row.Stats.Hits,
			row.Stats.PeakResident)
	}
	return b.String()
}
