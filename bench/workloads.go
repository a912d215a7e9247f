package main

import (
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
	"unsafe"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/experiments"
	"fedfteds/internal/fleet"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/seeds"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// Client SGD settings shared by every workload (the experiments' values).
const (
	clientLR       = 0.05
	clientMomentum = 0.5
	edsTemperature = 0.1
)

// workload is one set of generated inputs plus the loop that drives the
// program over them. A run repeats whole blocks — set-up, warm-up rounds,
// measured rounds — on the same seed until its time is spent, so every block
// does identical work and must end in the identical model.
type workload struct {
	Name string
	Why  string
	// Warmup rounds fill pools, lazy scratch and gob type caches before the
	// Rounds measured ones.
	Warmup, Rounds int
	// Target is the test accuracy time_to_target_s waits for; Floor is the
	// final accuracy below which the run counts as incorrect.
	Target, Floor float64
	// TCP marks the harness-owned loopback federation (else core.Runner.Run).
	TCP bool
	run func(w workload, env runEnv) (*block, error)
}

// runEnv is what a block is run under.
type runEnv struct {
	seed  int64
	tr    *tracer // nil for the untraced run
	quick bool
	procs int
}

// block is the outcome of one set-up + warm-up + measured federation.
type block struct {
	SetupS       float64
	PeakRSSMiB   float64
	Mallocs      uint64 // objects and bytes allocated over the measured rounds
	AllocBytes   uint64
	RoundMs      []float64 // wall time of each measured round
	RoundCPUMs   []float64 // process CPU time of each measured round
	Acc          []float64 // test accuracy after each measured round
	WireBytes    int64     // update + broadcast bytes over WireRounds rounds
	WireRounds   int
	TrainSamples int64 // selected samples x local epochs, measured rounds
	Attempted    int   // client updates requested, measured rounds
	Failed       int   // of those, not folded
	LossFinite   bool
	CRC          uint32 // CRC-32C of the final global state
	// WirePayload is the encoded state carried in the measured rounds and
	// WireWant the closed-form size it must equal (both 0 when the workload
	// has no closed form).
	WirePayload, WireWant int64

	spans  []span             // traced blocks only, phases synthesized
	counts map[string]float64 // layer counters the block observed
	kit    *probeKit
}

func (w workload) rounds(quick bool) (warmup, measuredRounds int) {
	if quick {
		return 1, 2
	}
	return w.Warmup, w.Rounds
}

var workloads = []workload{
	{
		Name: "sim_mlp_eds",
		Why: "FedFT-EDS(50%, moderate) on 24 Dirichlet(0.1) clients, in-process: tiny matmuls, " +
			"so selection, the core round loop and eval do most of the work; comm, fleet, sched do none",
		Warmup: 3, Rounds: 60, Target: 0.80, Floor: 0.70,
		run: runSimMLP,
	},
	{
		Name: "sim_wrn_fedavg",
		Why: "FedAvg on WRN-16-1, 4 clients x 32 samples, full training, no selection: conv kernels do " +
			"nearly everything, so a selection or partial-training change must not move it",
		Warmup: 2, Rounds: 16, Target: 0.45, Floor: 0.30,
		run: runSimWRN,
	},
	{
		Name: "tcp_identity",
		Why: "loopback-TCP federation, 567k-parameter MLP, 16 samples per client, full state each way: " +
			"gob envelopes, tensor blobs, socket writes and the fold dominate",
		Warmup: 3, Rounds: 30, Target: 0.25, Floor: 0.15, TCP: true,
		run: func(w workload, env runEnv) (*block, error) { return runTCP(w, env, "identity") },
	},
	{
		Name: "tcp_int8",
		Why: "the same federation with the int8 codec negotiated at Hello: 3.8x fewer uplink bytes but a " +
			"quantiser instead of memcpy, so codec speed shows here and not in tcp_identity",
		Warmup: 3, Rounds: 30, Target: 0.25, Floor: 0.15, TCP: true,
		run: func(w workload, env runEnv) (*block, error) { return runTCP(w, env, "int8") },
	},
	{
		Name: "fleet_day",
		Why: "100,000-client virtual fleet, cohort 64 under a diurnal trace and cluster:uniform: " +
			"registration is the set-up, each round is core's O(N) candidate build plus sched; training <10%",
		Warmup: 2, Rounds: 24, Target: 0.55, Floor: 0.50,
		run: runFleetDay,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runnerInputs is a generated federation for a core.Runner workload.
type runnerInputs struct {
	cfg     core.Config
	global  *models.Model
	clients []*core.Client // eager pool, or
	fleet   *fleet.Fleet   // virtual fleet
	test    *data.Dataset
	domain  *data.Domain
	counts  map[string]float64
}

// runRunnerBlock drives one core.Runner.Run from outside. Untraced, the only
// harness code inside the program is the boundary straggler policy; traced,
// the selector, scheduler, strategy and client source are decorated too.
func runRunnerBlock(w workload, env runEnv, build func(env runEnv) (runnerInputs, error)) (*block, error) {
	warmup, rounds := w.rounds(env.quick)
	settle()
	t0 := time.Now()
	in, err := build(env)
	if err != nil {
		return nil, err
	}
	var round atomic.Int32
	var candidates atomic.Int64
	sizeOf := func(pos int) int { return in.clients[pos].Data.Len() }
	var src core.ClientSource
	if in.fleet != nil {
		src = in.fleet
		sizeOf = func(pos int) int { return in.fleet.Describe(pos).DataSize }
	}
	bd := &boundary{inner: simtime.FullParticipation{}, warmup: warmup, sizeOf: sizeOf,
		selected: selectedCount(in.cfg.SelectFraction), epochs: in.cfg.LocalEpochs, tr: env.tr, round: &round}
	cfg := in.cfg
	cfg.Rounds = warmup + rounds
	cfg.Parallelism = env.procs
	cfg.Straggler = bd
	// The explicit fedavg strategy is pinned bit-identical to the legacy
	// composition, and gives the traced run a seam to decorate.
	strat := strategy.FedAvg()
	cfg.Strategy = strat
	if env.tr != nil {
		cfg.Selector = traceSelector(cfg.Selector, env.tr, &round)
		if cfg.Scheduler != nil {
			cfg.Scheduler = traceScheduler(cfg.Scheduler, env.tr, &round, &candidates)
		}
		cfg.Strategy = tracedStrategy{Composite: strat, tr: env.tr, round: &round}
		if src != nil {
			src = tracedSource{ClientSource: src, tr: env.tr, round: &round}
		}
	}
	var runner *core.Runner
	if src != nil {
		runner, err = core.NewRunnerWithSource(cfg, in.global, src, in.test)
	} else {
		runner, err = core.NewRunner(cfg, in.global, in.clients, in.test)
	}
	if err != nil {
		return nil, err
	}
	runCall := env.tr.now()
	hist, err := runner.Run()
	if err != nil {
		return nil, err
	}
	end, endCPU := time.Now(), processCPU()
	runEnd := env.tr.now()
	if len(bd.stamps) != warmup+rounds || len(hist.Records) != warmup+rounds {
		return nil, fmt.Errorf("bench: %s: saw %d round boundaries and %d records, want %d",
			w.Name, len(bd.stamps), len(hist.Records), warmup+rounds)
	}

	b := &block{
		// Set-up ends where the first round begins: it covers input
		// generation, pretraining, registration and Run's own prologue.
		SetupS:       bd.stamps[0].Sub(t0).Seconds(),
		WireBytes:    hist.TotalUplinkBytes + hist.TotalDownlinkBytes,
		WireRounds:   warmup + rounds,
		TrainSamples: bd.trainSamples,
		Attempted:    bd.attempted,
		LossFinite:   true,
		CRC:          stateCRC(in.global),
		counts:       map[string]float64{},
	}
	maps.Copy(b.counts, in.counts)
	b.Mallocs, b.AllocBytes = bd.allocs.stop()
	folded := 0
	for i, rec := range hist.Records {
		if math.IsNaN(rec.MeanTrainLoss) || math.IsInf(rec.MeanTrainLoss, 0) {
			b.LossFinite = false
		}
		if i < warmup {
			continue
		}
		next, nextCPU := end, endCPU
		if i+1 < len(bd.stamps) {
			next, nextCPU = bd.stamps[i+1], bd.cpu[i+1]
		}
		b.RoundMs = append(b.RoundMs, float64(next.Sub(bd.stamps[i]))/1e6)
		b.RoundCPUMs = append(b.RoundCPUMs, float64(nextCPU-bd.cpu[i])/1e6)
		b.Acc = append(b.Acc, rec.TestAccuracy)
		folded += rec.Participants
	}
	b.Failed = b.Attempted - folded

	if env.tr != nil {
		b.spans = synthesizePhases(env.tr.spans, runCall, runEnd)
		b.counts["sched.candidates"] = float64(candidates.Load()) / float64(warmup+rounds)
		if in.fleet != nil {
			st := in.fleet.Stats()
			b.counts["fleet.materializations"] = float64(st.Materializations)
			b.counts["fleet.pool_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Materializations)
			b.counts["fleet.peak_resident"] = float64(st.PeakResident)
		}
		kitCfg := in.cfg
		kitCfg.Rounds = 1
		b.kit = &probeKit{cfg: kitCfg, model: in.global, test: in.test, domain: in.domain,
			runner: runner, codec: "identity"}
		if in.fleet != nil {
			cls, err := in.fleet.Acquire([]int{0}, nil)
			if err != nil {
				return nil, err
			}
			b.kit.client = cls[0]
		} else {
			b.kit.client = in.clients[0]
		}
	}
	return b, nil
}

// settle returns freed memory to the OS between blocks and restarts the
// resident-set high-water mark, so one block's garbage does not sit under
// the next block's peak.
func settle() {
	debug.FreeOSMemory() // forces a collection first
	resetPeakRSS()
}

// synthesizePhases adds the round and phase spans of a Runner block, which
// no seam brackets directly, from the seam spans that do exist: a round runs
// from its first seam call to the next round's; the train phase from the end
// of Acquire (or Complete) to WeighUpdates; the fold phase from there to the
// end of ApplyAggregate; the rest of the round, up to the next first seam
// call, is evaluation, record keeping and the next candidate build.
func synthesizePhases(seams []span, runCall, runEnd int64) []span {
	type marks struct{ first, trainStart, weighStart, applyEnd, afterFold int64 }
	byRound := map[int]*marks{}
	last := 0
	for _, s := range seams {
		m := byRound[s.Round]
		if m == nil {
			m = &marks{first: math.MaxInt64}
			byRound[s.Round] = m
		}
		last = max(last, s.Round)
		m.first = min(m.first, s.Start)
		switch s.Name {
		case "simtime.complete", "fleet.acquire":
			m.trainStart = max(m.trainStart, s.End)
		case "strategy.weigh":
			m.weighStart = s.Start
		case "strategy.apply":
			m.applyEnd = s.End
			m.afterFold = max(m.afterFold, s.End)
		case "fleet.release":
			m.afterFold = max(m.afterFold, s.End)
		}
	}
	out := append([]span(nil), seams...)
	add := func(name string, lo, hi int64, round int) {
		out = append(out, span{Name: name, Start: lo, End: hi, Parent: -1, Round: round, Lane: -1})
	}
	for r := 1; r <= last; r++ {
		m := byRound[r]
		next := runEnd
		if n := byRound[r+1]; n != nil {
			next = n.first
		}
		add("core.round", m.first, next, r)
		add("core.train_phase", m.trainStart, m.weighStart, r)
		add("core.fold_phase", m.weighStart, m.applyEnd, r)
		add("core.between_rounds", m.afterFold, next, r)
	}
	if m := byRound[1]; m != nil {
		add("core.run_prologue", runCall, m.first, 0)
	}
	return out
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stateCRC is the CRC-32C of every state tensor's float32 bits, in order.
func stateCRC(m *models.Model) uint32 {
	var crc uint32
	for _, t := range m.StateTensors() {
		d := t.Data()
		if len(d) == 0 {
			continue
		}
		crc = crc32.Update(crc, castagnoli, unsafe.Slice((*byte)(unsafe.Pointer(&d[0])), 4*len(d)))
	}
	return crc
}

func runSimMLP(w workload, env runEnv) (*block, error) {
	return runRunnerBlock(w, env, func(env runEnv) (runnerInputs, error) {
		scale, clients := experiments.ScaleFast, 24
		if env.quick {
			scale, clients = experiments.ScaleSmoke, 8
		}
		e, err := experiments.NewEnv(scale, env.seed)
		if err != nil {
			return runnerInputs{}, err
		}
		fed, err := e.BuildFederation(e.Suite.Target10, clients, 0.1, 31337)
		if err != nil {
			return runnerInputs{}, err
		}
		global, err := e.PretrainedModel(e.Suite.Target10, e.Suite.Source)
		if err != nil {
			return runnerInputs{}, err
		}
		return runnerInputs{
			cfg: core.Config{LocalEpochs: 5, LR: clientLR, Momentum: clientMomentum,
				FinetunePart: models.FinetuneModerate, Selector: selection.Entropy{Temperature: edsTemperature},
				SelectFraction: 0.5, Seed: seeds.Derive(uint64(env.seed), 0x51A)},
			global: global, clients: fed.Clients, test: fed.Test, domain: e.Suite.Target10,
		}, nil
	})
}

// imageDataset draws n balanced samples and reshapes the flat 64-dim
// observations into 1x8x8 planes, as examples/wrnconv does.
func imageDataset(d *data.Domain, n int, rng *rand.Rand) (*data.Dataset, error) {
	ds, err := d.GenerateBalanced(n, rng)
	if err != nil {
		return nil, err
	}
	x, err := ds.X.Reshape(ds.Len(), 1, 8, 8)
	if err != nil {
		return nil, err
	}
	ds.X = x
	return ds, nil
}

func runSimWRN(w workload, env runEnv) (*block, error) {
	return runRunnerBlock(w, env, func(env runEnv) (runnerInputs, error) {
		suite, err := data.NewStandardSuite(env.seed)
		if err != nil {
			return runnerInputs{}, err
		}
		rng := seeds.Source(env.seed + 17)
		clients := make([]*core.Client, 4)
		for i := range clients {
			ds, err := imageDataset(suite.Target10, 32, rng)
			if err != nil {
				return runnerInputs{}, err
			}
			clients[i] = &core.Client{ID: i, Data: ds, Device: simtime.Device{FLOPSRate: 1e9}}
		}
		test, err := imageDataset(suite.Target10, 160, rng)
		if err != nil {
			return runnerInputs{}, err
		}
		global, err := models.Build(models.Spec{Arch: models.ArchWRN, InputShape: []int{1, 8, 8},
			NumClasses: 10, Depth: 16, WidthFactor: 1, InitSeed: env.seed + 101})
		if err != nil {
			return runnerInputs{}, err
		}
		return runnerInputs{
			cfg: core.Config{LocalEpochs: 1, BatchSize: 16, LR: clientLR, Momentum: clientMomentum,
				FinetunePart: models.FinetuneFull, Selector: selection.All{}, SelectFraction: 1,
				Seed: seeds.Derive(uint64(env.seed), 0x3A2)},
			global: global, clients: clients, test: test, domain: suite.Target10,
		}, nil
	})
}

func runFleetDay(w workload, env runEnv) (*block, error) {
	return runRunnerBlock(w, env, func(env runEnv) (runnerInputs, error) {
		n, cohort := 100_000, 64
		if env.quick {
			n, cohort = 2_000, 16
		}
		e, err := experiments.NewEnv(experiments.ScaleSmoke, env.seed)
		if err != nil {
			return runnerInputs{}, err
		}
		counts := map[string]float64{}
		// Live heap across fleet.New, garbage collected away on both sides;
		// traced blocks only, so the untraced set-up time pays for neither.
		var before runtime.MemStats
		if env.tr != nil {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		// The -exp fleetday population: 10-30 samples, alpha 0.3, 8 clusters.
		f, err := fleet.New(fleet.Spec{Clients: n, Seed: env.seed + 2000, Domain: e.Suite.Target10,
			MinSamples: 10, MaxSamples: 30, Alpha: 0.3, Clusters: 8, PoolSize: 2 * cohort})
		if err != nil {
			return runnerInputs{}, err
		}
		counts["fleet.new_s"] = time.Since(t0).Seconds()
		if env.tr != nil {
			var after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&after)
			counts["fleet.desc_bytes_per_client"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		}
		tr, err := fleet.ParseTrace(fleet.DiurnalTraceText(n))
		if err != nil {
			return runnerInputs{}, err
		}
		test, err := e.Suite.Target10.GenerateBalanced(e.Dims.TestSamples, seeds.Stream(uint64(env.seed), 0xF1EE7E57))
		if err != nil {
			return runnerInputs{}, err
		}
		global, err := e.FreshModel(e.Suite.Target10)
		if err != nil {
			return runnerInputs{}, err
		}
		return runnerInputs{
			cfg: core.Config{LocalEpochs: e.Dims.LocalEpochs, LR: clientLR, Momentum: clientMomentum,
				FinetunePart: models.FinetuneFull, Selector: selection.Entropy{Temperature: edsTemperature},
				SelectFraction: 0.5, Scheduler: tr.Scheduler(sched.ClusterSampling{Inner: sched.UniformRandom{}}),
				CohortSize: cohort, Seed: tensor.DeriveSeed(uint64(env.seed), uint64(n), 0xF1EE7DA1)},
			global: global, fleet: f, test: test, domain: e.Suite.Target10, counts: counts,
		}, nil
	})
}
