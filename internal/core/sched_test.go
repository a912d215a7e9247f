package core

import (
	"math"
	"reflect"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
)

// runHistory executes one short federated run and returns its history.
func runHistory(t *testing.T, cfg Config, clients []*Client, spec models.Spec, test *data.Dataset) History {
	t.Helper()
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

// TestSchedulerUnsetMatchesUniformFullCohort pins the equivalence the
// subsystem promises: with no Scheduler the legacy full-pool path runs, and
// UniformRandom with K = N must reproduce it bit-identically — same
// accuracies, same losses, same accounting — because a full-pool uniform
// cohort is the whole pool and the straggler rng stream is untouched.
func TestSchedulerUnsetMatchesUniformFullCohort(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	base := Config{
		Rounds:         3,
		LocalEpochs:    1,
		LR:             0.1,
		Selector:       selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5,
		Seed:           99,
	}

	legacy := runHistory(t, base, clients, spec, test)

	scheduled := base
	scheduled.Scheduler = sched.UniformRandom{}
	scheduled.CohortSize = len(clients)
	got := runHistory(t, scheduled, clients, spec, test)

	if len(got.Records) != len(legacy.Records) {
		t.Fatalf("round counts differ: %d vs %d", len(got.Records), len(legacy.Records))
	}
	for i := range got.Records {
		a, b := got.Records[i], legacy.Records[i]
		// The scheduler records its policy name; everything the run computes
		// must be bit-identical.
		if a.SchedPolicy != "uniform" || b.SchedPolicy != "" {
			t.Fatalf("round %d: policies %q / %q", i+1, a.SchedPolicy, b.SchedPolicy)
		}
		a.SchedPolicy, b.SchedPolicy = "", ""
		if a.CohortSize != len(clients) {
			t.Fatalf("round %d: cohort size %d, want %d", i+1, a.CohortSize, len(clients))
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d diverges:\n%+v\n%+v", i+1, a, b)
		}
	}
	if got.BestAccuracy != legacy.BestAccuracy || got.FinalAccuracy != legacy.FinalAccuracy ||
		got.TotalTrainSeconds != legacy.TotalTrainSeconds || got.TotalUplinkBytes != legacy.TotalUplinkBytes {
		t.Fatalf("totals diverge:\n%+v\n%+v", got, legacy)
	}
}

// TestCohortSmallerThanPoolLimitsParticipants checks the scheduling path
// proper: K=2 of 5 clients means at most 2 participants per round, the
// record carries the cohort size and policy, and time accounting only
// charges the scheduled clients.
func TestCohortSmallerThanPoolLimitsParticipants(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	cfg := Config{
		Rounds:         3,
		LocalEpochs:    1,
		LR:             0.1,
		Selector:       selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5,
		CohortSize:     2, // Scheduler defaults to UniformRandom
		Seed:           7,
	}
	hist := runHistory(t, cfg, clients, spec, test)
	for _, rec := range hist.Records {
		if rec.CohortSize != 2 {
			t.Fatalf("round %d: cohort size %d, want 2", rec.Round, rec.CohortSize)
		}
		if rec.SchedPolicy != "uniform" {
			t.Fatalf("round %d: policy %q, want uniform (CohortSize default)", rec.Round, rec.SchedPolicy)
		}
		if rec.Participants > 2 {
			t.Fatalf("round %d: %d participants exceed the cohort", rec.Round, rec.Participants)
		}
	}

	// A 2-of-5 cohort must cost well under the full-pool run.
	full := cfg
	full.CohortSize = 0
	full.Scheduler = nil
	fullHist := runHistory(t, full, clients, spec, test)
	if hist.TotalTrainSeconds >= fullHist.TotalTrainSeconds {
		t.Fatalf("cohort run cost %v >= full-pool cost %v",
			hist.TotalTrainSeconds, fullHist.TotalTrainSeconds)
	}
}

// TestEntropyUtilityFeedbackLoop runs the utility-driven policy end to end:
// after round 1 every scheduled client has reported a mean entropy, so the
// tracker must hold finite utilities for them and later cohorts must still
// fill to K.
func TestEntropyUtilityFeedbackLoop(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(entropyFeedbackConfig(), m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range hist.Records {
		if rec.CohortSize != 3 || rec.SchedPolicy != "entropy" {
			t.Fatalf("record %+v", rec)
		}
	}
	scored := 0
	for i := range clients {
		if u, ok := runner.prog.Tracker.Utility(i); ok {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatalf("client %d: utility %v", i, u)
			}
			scored++
		}
	}
	if scored < 3 {
		t.Fatalf("only %d clients ever reported utility, want >= one full cohort", scored)
	}
}

// entropyFeedbackConfig is a federation whose cohort scheduler reads the
// utility its clients report.
func entropyFeedbackConfig() Config {
	return Config{
		Rounds:         4,
		LocalEpochs:    1,
		LR:             0.1,
		Selector:       selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5,
		Scheduler:      sched.EntropyUtility{Epsilon: 0.25},
		CohortSize:     3,
		Seed:           21,
	}
}

// TestRerunStartsFresh: a second Run on one runner starts fresh, the
// scheduler's utility feedback included, so on TestEntropyUtilityFeedbackLoop's
// config it equals a fresh runner built over the weights the first run ended
// at.
func TestRerunStartsFresh(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := entropyFeedbackConfig()
	cfg.EvalEvery = 1
	runner, err := NewRunner(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	twin, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRunner(cfg, twin, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(got, want) {
		t.Fatalf("rerun history differs from a fresh runner's:\n got %+v\nwant %+v", got, want)
	}
	requireSameState(t, m, twin)
}
