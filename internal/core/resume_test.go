package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// resumeStrategies are the paper's three local-update strategies (plus the
// stateful churn wrapper) under checkpoint/resume test. Scheduler instances
// are built per run by newCfg so stateful policies never share state across
// the baseline and resumed runs.
var resumeStrategies = []struct {
	name   string
	rounds int
	newCfg func(rounds int) Config
}{
	{
		name:   "fedavg",
		rounds: 5,
		newCfg: func(rounds int) Config {
			return Config{
				Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
				FinetunePart: models.FinetuneFull, Selector: selection.All{},
				Parallelism: 2, Seed: 42,
			}
		},
	},
	{
		name:   "fedprox",
		rounds: 5,
		newCfg: func(rounds int) Config {
			return Config{
				Rounds: rounds, LocalEpochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9,
				Strategy:     mustFedProx(0.01),
				FinetunePart: models.FinetuneFull, Selector: selection.Random{}, SelectFraction: 0.7,
				Straggler:   simtime.FractionParticipation{Fraction: 0.8},
				Parallelism: 3, Seed: 7,
			}
		},
	},
	{
		name:   "fedft-eds-sched",
		rounds: 5,
		newCfg: func(rounds int) Config {
			return Config{
				Rounds: rounds, LocalEpochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.5,
				FinetunePart: models.FinetuneModerate,
				Selector:     selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
				Scheduler: sched.EntropyUtility{}, CohortSize: 3,
				Parallelism: 2, Seed: 99,
			}
		},
	},
	{
		name:   "avail-churn",
		rounds: 5,
		newCfg: func(rounds int) Config {
			return Config{
				Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
				FinetunePart: models.FinetuneModerate,
				Selector:     selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
				Scheduler:   &sched.Availability{Inner: sched.EntropyUtility{}, DownProb: 0.4, UpProb: 0.5},
				CohortSize:  3,
				Parallelism: 2, Seed: 21,
			}
		},
	},
	{
		// The stateful-strategy case: resuming mid-run must restore the
		// server optimizer's moments, or the post-resume aggregates diverge.
		// The strategy is constructed per run (never shared), like the
		// stateful schedulers above.
		name:   "fedadam-midrun",
		rounds: 5,
		newCfg: func(rounds int) Config {
			strat, err := strategy.Parse("fedadam:lr=0.2")
			if err != nil {
				panic(err)
			}
			return Config{
				Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
				FinetunePart: models.FinetuneModerate,
				Selector:     selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
				Strategy:    strat,
				Parallelism: 2, Seed: 63,
			}
		},
	},
}

// histEqual compares histories with bitwise float semantics.
func histEqual(a, b History) bool {
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

// requireSameState asserts two models' full states are byte-identical.
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

// TestResumeBitIdentical is the tentpole acceptance test: for each strategy,
// a run checkpointed every round and resumed at R ∈ {1, mid, T−1} must
// reproduce the uninterrupted run's History and final global state byte for
// byte — and writing checkpoints must not perturb the run at all.
func TestResumeBitIdentical(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)

	for _, st := range resumeStrategies {
		t.Run(st.name, func(t *testing.T) {
			build := func() *models.Model {
				m, err := models.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			dir := t.TempDir()

			// Reference: no checkpointing at all.
			refModel := build()
			refRunner, err := NewRunner(st.newCfg(st.rounds), refModel, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			refHist, err := refRunner.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Baseline: same run, checkpointing every round.
			baseCfg := st.newCfg(st.rounds)
			baseCfg.CheckpointDir = dir
			baseCfg.CheckpointEvery = 1
			baseModel := build()
			baseRunner, err := NewRunner(baseCfg, baseModel, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			baseHist, err := baseRunner.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !histEqual(refHist, baseHist) {
				t.Fatalf("checkpointing perturbed the run:\nref:  %+v\nbase: %+v", refHist, baseHist)
			}
			requireSameState(t, refModel, baseModel)

			for _, r := range []int{1, st.rounds / 2, st.rounds - 1} {
				sections, err := ckpt.Load(ckpt.Path(dir, r))
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				state, err := RunStateFromSections(sections)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				m := build()
				runner, err := NewRunner(st.newCfg(st.rounds), m, clients, test)
				if err != nil {
					t.Fatal(err)
				}
				if err := state.RestoreInto(runner); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				hist, err := runner.Run()
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if !histEqual(baseHist, hist) {
					t.Fatalf("resume at round %d diverged:\nfull:    %+v\nresumed: %+v", r, baseHist, hist)
				}
				requireSameState(t, baseModel, m)
			}
		})
	}
}

// TestResumeAfterInterruption covers the kill-and-restart shape directly: a
// run that stops after R rounds (its process dies), then a new process
// resumes from the latest checkpoint with the full round budget.
func TestResumeAfterInterruption(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	const total, killAt = 5, 2
	newCfg := resumeStrategies[2].newCfg // FedFT+EDS+scheduler

	build := func() *models.Model {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	fullModel := build()
	fullRunner, err := NewRunner(newCfg(total), fullModel, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	fullHist, err := fullRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	// "Process one": dies after killAt rounds, leaving checkpoints behind.
	dir := t.TempDir()
	killedCfg := newCfg(killAt)
	killedCfg.CheckpointDir = dir
	killedRunner, err := NewRunner(killedCfg, build(), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := killedRunner.Run(); err != nil {
		t.Fatal(err)
	}

	// "Process two": fresh everything, resumes from the directory.
	resumedCfg := newCfg(total)
	resumedCfg.CheckpointDir = dir
	resumedModel := build()
	resumedRunner, err := NewRunner(resumedCfg, resumedModel, clients, test)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("interrupted run diverged:\nfull:    %+v\nresumed: %+v", fullHist, resumedHist)
	}
	requireSameState(t, fullModel, resumedModel)
}

// TestExtendFinishedRun pins the artifact-store property the experiments
// layer relies on: a finished T-round run can be extended to T' > T rounds
// from its final checkpoint, bit-identical to having run T' rounds from the
// start — and re-running a finished run resumes instantly as a no-op with
// the same History.
func TestExtendFinishedRun(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	const short, long = 3, 5
	newCfg := resumeStrategies[0].newCfg // FedAvg

	build := func() *models.Model {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	dir := t.TempDir()
	shortCfg := newCfg(short)
	shortCfg.CheckpointDir = dir
	shortRunner, err := NewRunner(shortCfg, build(), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	shortHist, err := shortRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Re-running the finished run is a pure reload: no new rounds, same
	// History, checkpoint files untouched.
	reloadCfg := newCfg(short)
	reloadCfg.CheckpointDir = dir
	reloadRunner, err := NewRunner(reloadCfg, build(), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reloadRunner.ResumeLatest(); err != nil {
		t.Fatal(err)
	}
	reloadHist, err := reloadRunner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(shortHist, reloadHist) {
		t.Fatalf("reloaded run differs:\nfirst:  %+v\nreload: %+v", shortHist, reloadHist)
	}

	// Extending to `long` rounds from the final checkpoint.
	extCfg := newCfg(long)
	extCfg.CheckpointDir = dir
	extModel := build()
	extRunner, err := NewRunner(extCfg, extModel, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if round, err := extRunner.ResumeLatest(); err != nil || round != short {
		t.Fatalf("resumed round %d, err %v", round, err)
	}
	extHist, err := extRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	uninterruptedModel := build()
	uninterruptedRunner, err := NewRunner(newCfg(long), uninterruptedModel, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	uninterruptedHist, err := uninterruptedRunner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(uninterruptedHist, extHist) {
		t.Fatalf("extension diverged:\nfresh:    %+v\nextended: %+v", uninterruptedHist, extHist)
	}
	requireSameState(t, uninterruptedModel, extModel)
}

// TestRunStateRoundTrip: a real run's snapshot survives
// encode→container→decode with every field intact, bit for bit.
func TestRunStateRoundTrip(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	cfg := resumeStrategies[3].newCfg(3) // stateful scheduler: exercises SchedState
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	want, err := runner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want.Round != 3 || want.SchedName != "avail:entropy" || len(want.SchedState) == 0 {
		t.Fatalf("unexpected snapshot meta: %+v", want)
	}

	sections, err := want.Sections()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ckpt.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStateFromSections(rt)
	if err != nil {
		t.Fatal(err)
	}

	if got.Seed != want.Seed || got.Round != want.Round || got.SchedName != want.SchedName {
		t.Fatalf("meta differs: %+v vs %+v", got, want)
	}
	if !reflect.DeepEqual(got.SchedState, want.SchedState) {
		t.Fatal("scheduler state differs")
	}
	if got.Acct != want.Acct {
		t.Fatalf("accountant differs: %+v vs %+v", got.Acct, want.Acct)
	}
	if !histEqual(got.Hist, want.Hist) {
		t.Fatal("history differs")
	}
	if !reflect.DeepEqual(got.TrackerUtil, want.TrackerUtil) ||
		!reflect.DeepEqual(got.TrackerSeconds, want.TrackerSeconds) {
		t.Fatal("tracker maps differ")
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("model tensor count %d vs %d", len(got.Model), len(want.Model))
	}
	for i := range want.Model {
		if !got.Model[i].Equal(want.Model[i]) {
			t.Fatalf("model tensor %d differs", i)
		}
	}
	if len(got.Opt) != 0 {
		t.Fatalf("round-boundary snapshot carries optimizer state: %d clients", len(got.Opt))
	}
}

// TestRestoreIntoRejectsMismatches: a checkpoint must never be silently
// applied to a run it does not belong to.
func TestRestoreIntoRejectsMismatches(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	newRunner := func(cfg Config) *Runner {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(cfg, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cfg := resumeStrategies[0].newCfg(3)
	cfg.CheckpointDir = t.TempDir()
	runner := newRunner(cfg)
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	state, err := LoadLatestRunState(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name   string
		mutate func(*RunState, *Config)
	}{
		{"wrong seed", func(s *RunState, c *Config) { c.Seed++ }},
		{"changed hyperparameters", func(s *RunState, c *Config) { c.LocalEpochs++ }},
		{"changed selector", func(s *RunState, c *Config) { c.Selector = selection.Random{}; c.SelectFraction = 0.5 }},
		{"round beyond budget", func(s *RunState, c *Config) { c.Rounds = s.Round - 1 }},
		{"scheduler mismatch", func(s *RunState, c *Config) {
			c.Scheduler = sched.UniformRandom{}
			c.CohortSize = 2
		}},
		{"unexpected scheduler state", func(s *RunState, c *Config) { s.SchedState = []byte{0, 0, 0, 0, 0, 0, 0, 0} }},
		{"history desync", func(s *RunState, c *Config) { s.Hist.Records = s.Hist.Records[:1] }},
		{"model shape mismatch", func(s *RunState, c *Config) { s.Model = s.Model[:len(s.Model)-1] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := resumeStrategies[0].newCfg(3)
			s := *state
			s.Hist = copyHistory(state.Hist)
			s.Model = append([]*tensor.Tensor(nil), state.Model...)
			tt.mutate(&s, &c)
			if err := s.RestoreInto(newRunner(c)); err == nil {
				t.Fatal("mismatched restore accepted")
			}
		})
	}

	// A different federation — same config, same seed, fewer clients — is
	// refused too: the ConfigTag covers the client pool's identity.
	t.Run("different federation", func(t *testing.T) {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		shrunk, err := NewRunner(resumeStrategies[0].newCfg(3), m, clients[:3], test)
		if err != nil {
			t.Fatal(err)
		}
		if err := state.RestoreInto(shrunk); err == nil {
			t.Fatal("restore into a different client pool accepted")
		}
	})
}

// TestRunAfterResumeStartsFresh pins the re-run semantics: a restored
// runner's first Run consumes the restore; a second Run starts a fresh,
// self-consistent history (the legacy behavior) instead of appending
// duplicate rounds on top of the finished one.
func TestRunAfterResumeStartsFresh(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	cfg := resumeStrategies[0].newCfg(3)
	cfg.CheckpointDir = t.TempDir()
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewRunner(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}

	m2, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewRunner(cfg, m2, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.ResumeLatest(); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	again, err := resumed.Run() // must start fresh, not append rounds 4..6
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Records) != cfg.Rounds {
		t.Fatalf("second Run produced %d records, want %d", len(again.Records), cfg.Rounds)
	}
	for i, rec := range again.Records {
		if rec.Round != i+1 {
			t.Fatalf("second Run record %d has round %d", i, rec.Round)
		}
	}
}

// TestResumeLatestNoCheckpoint: an empty directory is the typed sentinel,
// so "resume if possible" callers can fall back to a fresh start.
func TestResumeLatestNoCheckpoint(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeStrategies[0].newCfg(2)
	cfg.CheckpointDir = t.TempDir()
	runner, err := NewRunner(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ResumeLatest(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
	// A corrupt lone checkpoint is ErrCorrupt, never silently ignored.
	if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, "round-000000001.fedckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ResumeLatest(); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestCheckpointConfigValidation pins the fail-fast rules for the new pair.
func TestCheckpointConfigValidation(t *testing.T) {
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Rounds: 1, LocalEpochs: 1, LR: 0.1, Seed: 1}

	bad := base
	bad.CheckpointEvery = -1
	if _, err := NewRunner(bad, m, clients, test); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative interval: %v", err)
	}
	bad = base
	bad.CheckpointEvery = 2 // interval without a directory
	if _, err := NewRunner(bad, m, clients, test); !errors.Is(err, ErrConfig) {
		t.Fatalf("interval without dir: %v", err)
	}
	ok := base
	ok.CheckpointDir = t.TempDir() // dir alone defaults the interval to 1
	runner, err := NewRunner(ok, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if runner.cfg.CheckpointEvery != 1 {
		t.Fatalf("CheckpointEvery defaulted to %d, want 1", runner.cfg.CheckpointEvery)
	}
}
