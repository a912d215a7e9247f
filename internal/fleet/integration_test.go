package fleet_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/fleet"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// fixture builds a fleet spec, a shared test set, and the model builder used
// by every integration test. The fleet is deliberately larger than the cohort
// and the pool smaller than the fleet, so every run exercises lazy
// materialization, eviction, and re-materialization.
func fixture(t *testing.T, n int) (fleet.Spec, *data.Dataset, func() *models.Model) {
	t.Helper()
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatal(err)
	}
	test, err := suite.Target10.GenerateBalanced(200, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.Spec{
		Clients: n, Seed: 42, Domain: suite.Target10,
		MinSamples: 12, MaxSamples: 30, Alpha: 0.5,
		MedianFLOPS: 1e9, Sigma: 0.35, PoolSize: 4,
	}
	mspec := models.Spec{
		Arch: models.ArchMLP, InputShape: []int{64}, NumClasses: 10,
		Hidden: 16, InitSeed: 13,
	}
	build := func() *models.Model {
		m, err := models.Build(mspec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return spec, test, build
}

func fleetCfg(rounds, cohort int) core.Config {
	return core.Config{
		Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
		FinetunePart: models.FinetuneFull, Selector: selection.All{},
		Scheduler: sched.UniformRandom{}, CohortSize: cohort,
		Parallelism: 2, Seed: 42,
	}
}

// histEqual compares histories with bitwise float semantics (NaN == NaN for
// unevaluated rounds).
func histEqual(a, b core.History) bool {
	f64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.Records) != len(b.Records) ||
		!f64(a.BestAccuracy, b.BestAccuracy) || !f64(a.FinalAccuracy, b.FinalAccuracy) ||
		!f64(a.TotalTrainSeconds, b.TotalTrainSeconds) ||
		a.TotalUplinkBytes != b.TotalUplinkBytes || a.TotalDownlinkBytes != b.TotalDownlinkBytes {
		return false
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Round != rb.Round || ra.CohortSize != rb.CohortSize || ra.SchedPolicy != rb.SchedPolicy ||
			ra.Participants != rb.Participants || ra.CumUplinkBytes != rb.CumUplinkBytes ||
			!f64(ra.TestAccuracy, rb.TestAccuracy) || !f64(ra.MeanTrainLoss, rb.MeanTrainLoss) ||
			!f64(ra.CumTrainSeconds, rb.CumTrainSeconds) {
			return false
		}
	}
	return true
}

func requireSameState(t *testing.T, a, b *models.Model) {
	t.Helper()
	as, bs := a.StateTensors(), b.StateTensors()
	if len(as) != len(bs) {
		t.Fatalf("state tensor count differs: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if !as[i].Equal(bs[i]) {
			t.Fatalf("global state tensor %d differs", i)
		}
	}
}

// TestFleetRunMatchesEager is the tentpole acceptance test: a fleet-backed
// run — clients materialized lazily on selection, evicted after each round —
// produces a History and final model bit-identical to the same run over the
// fully materialized eager client slice.
func TestFleetRunMatchesEager(t *testing.T) {
	spec, test, build := fixture(t, 12)
	f, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := f.MaterializeAll()
	if err != nil {
		t.Fatal(err)
	}

	cfg := fleetCfg(4, 4)
	lazyModel := build()
	lazyRunner, err := core.NewRunnerWithSource(cfg, lazyModel, f, test)
	if err != nil {
		t.Fatal(err)
	}
	lazyHist, err := lazyRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	eagerModel := build()
	eagerRunner, err := core.NewRunner(cfg, eagerModel, eager, test)
	if err != nil {
		t.Fatal(err)
	}
	eagerHist, err := eagerRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !histEqual(lazyHist, eagerHist) {
		t.Fatalf("lazy fleet diverged from eager:\nlazy:  %+v\neager: %+v", lazyHist, eagerHist)
	}
	requireSameState(t, lazyModel, eagerModel)

	// The run must actually have exercised the pool: 4 cohort slots over a
	// 12-client fleet with a 4-entry pool cannot avoid evictions.
	if st := f.Stats(); st.Evictions == 0 || st.PeakResident > 2*spec.PoolSize {
		t.Errorf("pool stats %+v: expected evictions with bounded residency", st)
	}
}

// TestFleetClusterScheduler runs the similarity-aware policy end to end over
// a clustered fleet and pins its determinism.
func TestFleetClusterScheduler(t *testing.T) {
	spec, test, build := fixture(t, 18)
	spec.Alpha = 0.1
	spec.Clusters = 3

	run := func() (core.History, *models.Model) {
		f, err := fleet.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleetCfg(3, 6)
		cfg.Scheduler = sched.ClusterSampling{Inner: sched.UniformRandom{}}
		m := build()
		r, err := core.NewRunnerWithSource(cfg, m, f, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist, m
	}
	histA, modelA := run()
	histB, modelB := run()
	if !histEqual(histA, histB) {
		t.Fatalf("cluster-scheduled fleet run not deterministic:\nA: %+v\nB: %+v", histA, histB)
	}
	requireSameState(t, modelA, modelB)
	for _, rec := range histA.Records {
		if rec.SchedPolicy != "cluster:uniform" {
			t.Fatalf("record policy %q, want cluster:uniform", rec.SchedPolicy)
		}
		if rec.Participants != 6 {
			t.Fatalf("round %d: %d participants, want 6", rec.Round, rec.Participants)
		}
	}
}

// TestFleetCheckpointResume pins the headline experiment's resumability: a
// fleet-backed run killed mid-day resumes from its latest checkpoint
// bit-identically to the uninterrupted run — re-deriving every virtual client
// it needs from seeds.
func TestFleetCheckpointResume(t *testing.T) {
	spec, test, build := fixture(t, 12)
	const total, killAt = 5, 2

	newRunner := func(cfg core.Config) (*core.Runner, *models.Model) {
		f, err := fleet.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := build()
		r, err := core.NewRunnerWithSource(cfg, m, f, test)
		if err != nil {
			t.Fatal(err)
		}
		return r, m
	}

	fullRunner, fullModel := newRunner(fleetCfg(total, 4))
	fullHist, err := fullRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killedCfg := fleetCfg(killAt, 4)
	killedCfg.CheckpointDir = dir
	killedRunner, _ := newRunner(killedCfg)
	if _, err := killedRunner.Run(); err != nil {
		t.Fatal(err)
	}

	resumedCfg := fleetCfg(total, 4)
	resumedCfg.CheckpointDir = dir
	resumedRunner, resumedModel := newRunner(resumedCfg)
	round, err := resumedRunner.ResumeLatest()
	if err != nil {
		t.Fatal(err)
	}
	if round != killAt {
		t.Fatalf("resumed from round %d, want %d", round, killAt)
	}
	resumedHist, err := resumedRunner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(fullHist, resumedHist) {
		t.Fatalf("fleet resume diverged:\nfull:    %+v\nresumed: %+v", fullHist, resumedHist)
	}
	requireSameState(t, fullModel, resumedModel)
}

// TestFleetFingerprintMismatchRefused: a checkpoint written under one fleet
// refuses to restore under another — whether the spec changed (different
// configuration tag) or only the recorded fingerprint was tampered with.
func TestFleetFingerprintMismatchRefused(t *testing.T) {
	spec, test, build := fixture(t, 12)
	f, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(2, 4)
	runner, err := core.NewRunnerWithSource(cfg, build(), f, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	state, err := runner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if state.FleetSpec != f.Fingerprint() {
		t.Fatalf("snapshot fleet spec %q, want %q", state.FleetSpec, f.Fingerprint())
	}

	// An edited fleet (different seed → different population) is refused.
	edited := spec
	edited.Seed = 43
	f2, err := fleet.New(edited)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewRunnerWithSource(cfg, build(), f2, test)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.RestoreInto(other); err == nil {
		t.Fatal("restore under an edited fleet accepted")
	}

	// A tampered fingerprint alone — everything else intact — is refused with
	// the fleet-specific message.
	same, err := core.NewRunnerWithSource(cfg, build(), f, test)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *state
	tampered.FleetSpec = "0000000000000000"
	err = tampered.RestoreInto(same)
	if err == nil || !strings.Contains(err.Error(), "fleet fingerprint") {
		t.Fatalf("tampered fingerprint: err %v, want fleet fingerprint refusal", err)
	}
}

// TestFleetAsyncFullBufferMatchesRun pins the async engine's baseline: with
// Buffer = CohortSize and no staleness, every aggregation
// folds exactly its dispatched window, so the explicit buffer replays Run —
// the same loop asked to await its window — bit for bit.
func TestFleetAsyncFullBufferMatchesRun(t *testing.T) {
	spec, test, build := fixture(t, 12)

	f1, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	syncModel := build()
	syncRunner, err := core.NewRunnerWithSource(fleetCfg(4, 4), syncModel, f1, test)
	if err != nil {
		t.Fatal(err)
	}
	syncHist, err := syncRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	f2, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	asyncModel := build()
	asyncCfg := fleetCfg(4, 4)
	asyncCfg.Async = core.AsyncConfig{Buffer: 4, MaxStaleness: -1}
	asyncRunner, err := core.NewRunnerWithSource(asyncCfg, asyncModel, f2, test)
	if err != nil {
		t.Fatal(err)
	}
	asyncHist, err := asyncRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !histEqual(syncHist, asyncHist) {
		t.Fatalf("full-buffer async diverged from sync:\nsync:  %+v\nasync: %+v", syncHist, asyncHist)
	}
	requireSameState(t, syncModel, asyncModel)
}

// TestFleetAsyncTraceDeterministic drives the event-driven engine with
// replayed trace availability, a partial buffer and staleness discards — and
// pins that the whole composition is deterministic.
func TestFleetAsyncTraceDeterministic(t *testing.T) {
	spec, test, build := fixture(t, 18)

	run := func() (core.History, *models.Model) {
		tr, err := fleet.ParseTrace(fleet.DiurnalTraceText(18))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fleet.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleetCfg(6, 6)
		cfg.Scheduler = tr.Scheduler(sched.UniformRandom{})
		cfg.Async = core.AsyncConfig{Buffer: 3, MaxStaleness: 2}
		m := build()
		r, err := core.NewRunnerWithSource(cfg, m, f, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist, m
	}

	histA, modelA := run()
	histB, modelB := run()
	if !histEqual(histA, histB) {
		t.Fatalf("trace-driven async fleet not deterministic:\nA: %+v\nB: %+v", histA, histB)
	}
	requireSameState(t, modelA, modelB)
	if len(histA.Records) != 6 {
		t.Fatalf("%d records, want 6", len(histA.Records))
	}
	for _, rec := range histA.Records {
		if rec.Participants != 3 {
			t.Fatalf("aggregation %d folded %d updates, want Buffer=3", rec.Round, rec.Participants)
		}
		if rec.CohortSize < rec.Participants {
			t.Fatalf("aggregation %d: cohort %d < participants %d", rec.Round, rec.CohortSize, rec.Participants)
		}
		if !strings.HasPrefix(rec.SchedPolicy, "trace[") {
			t.Fatalf("aggregation %d: policy %q not trace-wrapped", rec.Round, rec.SchedPolicy)
		}
	}
}

// TestRunFleetAsyncValidation pins what overlapping rounds over a fleet still
// refuse — a buffer outside [0, window] — and that the rest of the old
// fail-fast surface now runs: a zero buffer (the synchronous run), a fleet
// source without a scheduler (the window is then the fleet), a cohort larger
// than the fleet (clamped, as synchronous runs always were) and an uplink
// codec.
func TestRunFleetAsyncValidation(t *testing.T) {
	spec, test, build := fixture(t, 8)

	acfg := func(buffer int) core.AsyncConfig { return core.AsyncConfig{Buffer: buffer, MaxStaleness: -1} }
	cases := []struct {
		name    string
		mutate  func(*core.Config)
		acfg    core.AsyncConfig
		refused bool
	}{
		{"negative buffer", nil, acfg(-1), true},
		{"zero buffer", nil, acfg(0), false},
		{"buffer exceeds window", nil, acfg(5), true},
		{"no scheduler", func(c *core.Config) { c.Scheduler, c.CohortSize = nil, 0 }, acfg(5), false},
		{"window exceeds fleet", func(c *core.Config) { c.CohortSize = 9 }, acfg(8), false},
		{"codec", func(c *core.Config) { c.Codec = "float16" }, acfg(2), false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			f, err := fleet.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fleetCfg(2, 4)
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			cfg.Async = tt.acfg
			r, err := core.NewRunnerWithSource(cfg, build(), f, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.Run()
			switch {
			case tt.refused && !errors.Is(err, core.ErrConfig):
				t.Fatalf("err %v, want ErrConfig", err)
			case !tt.refused && (err != nil || len(hist.Records) != 2):
				t.Fatalf("err %v after %d records, want 2 clean rounds", err, len(hist.Records))
			}
		})
	}
}

// TestFleetAsyncPartialBufferDigests pins the windowed buffered loop bit for
// bit where Buffer < CohortSize: trace availability and staleness discards with
// immediate re-dispatch. The digest is the History %+v plus every final state
// float's bits. The "departures" row is named for the client departures it
// once injected; it now pins a tighter staleness bound over ten rounds.
func TestFleetAsyncPartialBufferDigests(t *testing.T) {
	for _, tt := range []struct {
		name         string
		rounds       int
		maxStaleness int
		want         string
	}{
		{name: "discards", rounds: 6, maxStaleness: 2, want: "17eba846bab9b0e8"},
		{name: "departures", rounds: 10, maxStaleness: 1, want: "4cb080be8e9796c5"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			spec, test, build := fixture(t, 18)
			tr, err := fleet.ParseTrace(fleet.DiurnalTraceText(18))
			if err != nil {
				t.Fatal(err)
			}
			f, err := fleet.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fleetCfg(tt.rounds, 6)
			cfg.Scheduler = tr.Scheduler(sched.UniformRandom{})
			cfg.Async = core.AsyncConfig{Buffer: 3, MaxStaleness: tt.maxStaleness, Weigher: strategy.InvSqrtStaleness()}
			m := build()
			r, err := core.NewRunnerWithSource(cfg, m, f, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", hist)
			for _, ts := range m.StateTensors() {
				for _, v := range ts.Data() {
					fmt.Fprintf(h, "%08x", math.Float32bits(v))
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tt.want {
				t.Fatalf("digest %s, want %s", got, tt.want)
			}
		})
	}
}
