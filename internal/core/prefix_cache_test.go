package core

import (
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
)

// evalSpy is a pass-through straggler policy that evaluates the whole global
// model on the raw test set — no view, no cached features — every time a
// round starts, which is directly after the previous round was recorded.
type evalSpy struct {
	t      *testing.T
	global *models.Model
	test   *data.Dataset
	direct []float64
}

func (s *evalSpy) Complete(ids []int, _ []float64, _ *rand.Rand) []int {
	s.observe()
	return append([]int(nil), ids...)
}

// String keeps the spy's contribution to the checkpoint configuration tag
// constant (the tag renders the straggler policy with %+v).
func (s *evalSpy) String() string { return "evalSpy" }

func (s *evalSpy) observe() {
	acc, err := metrics.Accuracy(s.global, s.test)
	if err != nil {
		s.t.Fatal(err)
	}
	s.direct = append(s.direct, acc)
}

// requireDirect checks every record from round first on against the spy's
// direct evaluation after that round (the spy's first observation precedes
// round first; the caller takes the last one after Run returns).
func (s *evalSpy) requireDirect(hist History, first int) {
	s.t.Helper()
	s.observe()
	recs := hist.Records[first-1:]
	if len(s.direct) != len(recs)+1 {
		s.t.Fatalf("%d direct evaluations for %d rounds", len(s.direct), len(recs))
	}
	for i, rec := range recs {
		if rec.TestAccuracy != s.direct[i+1] {
			s.t.Errorf("round %d: recorded accuracy %v, direct evaluation %v", rec.Round, rec.TestAccuracy, s.direct[i+1])
		}
	}
	s.direct = s.direct[:0]
}

func partialEDSConfig(rounds int, spy *evalSpy) Config {
	return Config{Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
		FinetunePart: models.FinetuneModerate, Selector: selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5, EvalEvery: 1, Straggler: spy, Seed: 17}
}

// TestTestSetFeaturesDieWithTheirWeights: the test set's frozen-prefix pass
// lasts a run because a run cannot write the prefix — but a caller can,
// between runs. Overwriting a low-group weight of GlobalModel() after a run
// must show in every accuracy of the next one.
func TestTestSetFeaturesDieWithTheirWeights(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	spy := &evalSpy{t: t, global: m, test: test}
	r, err := NewRunner(partialEDSConfig(3, spy), m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	spy.requireDirect(hist, 1)

	// The first weights of the state are low.fc's: scale a row of them.
	w := r.GlobalModel().StateTensors()[0].Data()
	for i := 0; i < 64; i++ {
		w[i] *= -3
	}
	if hist, err = r.Run(); err != nil {
		t.Fatal(err)
	}
	spy.requireDirect(hist, 1)
}

// TestRestoreIntoUsedRunnerDropsTestSetFeatures: RunIdentity.Restore does
// not compare weights, so a checkpoint of a differently initialised model
// restores into a runner that has already evaluated, and rewrites the frozen
// prefix under the features that runner derived from its own. The
// continued run must evaluate the restored weights: its accuracies equal
// direct evaluation, and its history the uninterrupted run's.
func TestRestoreIntoUsedRunnerDropsTestSetFeatures(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	const total, cut = 5, 2
	build := func(initSeed int64) *models.Model {
		s := spec
		s.InitSeed = initSeed
		m, err := models.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(rounds int, m *models.Model, spy *evalSpy) (*Runner, History) {
		r, err := NewRunner(partialEDSConfig(rounds, spy), m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r, hist
	}
	ref := build(13)
	_, refHist := run(total, ref, &evalSpy{t: t, global: ref, test: test})
	src := build(13)
	srcRunner, _ := run(cut, src, &evalSpy{t: t, global: src, test: test})
	state, err := srcRunner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	used := build(99)
	spy := &evalSpy{t: t, global: used, test: test}
	usedRunner, usedHist := run(total, used, spy)
	spy.requireDirect(usedHist, 1)
	if err := state.RestoreInto(usedRunner); err != nil {
		t.Fatal(err)
	}
	hist, err := usedRunner.Run()
	if err != nil {
		t.Fatal(err)
	}
	spy.requireDirect(hist, cut+1)
	if !histEqual(refHist, hist) {
		t.Fatalf("continued run diverged from the uninterrupted one:\nfull:      %+v\ncontinued: %+v", refHist, hist)
	}
	requireSameState(t, ref, used)
}

// TestDivergedPrefixReachesTheLoss: a NaN activation out of a frozen group
// must arrive at the loss. ReLU used to write 0 for NaN in training mode only,
// so the client trained on silently zeroed activations and reported a finite
// loss for a model whose scoring pass saw NaN.
func TestDivergedPrefixReachesTheLoss(t *testing.T) {
	clients, _, _, spec := testFederation(t, 4, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.StateTensors()[0].Data()[0] = float32(math.NaN()) // one weight of low.fc
	cfg, err := NewLocalConfig(Config{LocalEpochs: 1, BatchSize: 16, LR: 0.1,
		FinetunePart: models.FinetuneModerate, Selector: selection.All{}, SelectFraction: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := LocalUpdate(cfg, m, clients[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.TrainLoss) {
		t.Fatalf("train loss %v for a model whose low group emits NaN, want NaN", out.TrainLoss)
	}
}
