package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/tensor"
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

// TestClientFeaturesDieWithTheirWeights: a client's frozen-prefix entry
// lasts a run because a run cannot write the prefix — but a caller can,
// between runs, and a checkpoint restored into a used runner rewrites it
// under the entries that runner filled from its own weights. Either way the
// next run must train on features of the weights it has: it equals a fresh
// runner's run from the same weights, history and state.
func TestClientFeaturesDieWithTheirWeights(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	cfg := func(rounds int) Config {
		c := partialEDSConfig(rounds, nil)
		c.Straggler = nil
		return c
	}
	build := func(initSeed int64) *models.Model {
		s := spec
		s.InitSeed = initSeed
		m, err := models.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(r *Runner) History {
		hist, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.prefix[0].X == nil {
			t.Fatal("the run kept no prefix entry for client 0")
		}
		return hist
	}
	newRunner := func(rounds int, m *models.Model) *Runner {
		r, err := NewRunner(cfg(rounds), m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tt := range []struct {
		name string
		// got runs the used runner and returns its history and global;
		// want runs the fresh one it must equal.
		got, want func() (History, *models.Model)
	}{
		{"rerun after an edit of the prefix", func() (History, *models.Model) {
			r := newRunner(3, build(13))
			run(r)
			// The first weights of the state are low.fc's: scale a row of them.
			w := r.GlobalModel().StateTensors()[0].Data()
			for i := 0; i < 64; i++ {
				w[i] *= -3
			}
			return run(r), r.GlobalModel()
		}, func() (History, *models.Model) {
			m := build(13)
			run(newRunner(3, m))
			w := m.StateTensors()[0].Data()
			for i := 0; i < 64; i++ {
				w[i] *= -3
			}
			fresh, err := m.Clone()
			if err != nil {
				t.Fatal(err)
			}
			return run(newRunner(3, fresh)), fresh
		}},
		{"RestoreInto a used runner", func() (History, *models.Model) {
			src := newRunner(2, build(13))
			run(src)
			state, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			used := newRunner(5, build(99))
			run(used)
			if err := state.RestoreInto(used); err != nil {
				t.Fatal(err)
			}
			if used.prefix != nil {
				t.Error("RestoreInto kept the prefix entries of the weights it replaced")
			}
			return run(used), used.GlobalModel()
		}, func() (History, *models.Model) {
			m := build(13)
			return run(newRunner(5, m)), m
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			gotHist, gotModel := tt.got()
			wantHist, wantModel := tt.want()
			if !histEqual(wantHist, gotHist) {
				t.Fatalf("used runner diverged from a fresh one:\nfresh: %+v\nused:  %+v", wantHist, gotHist)
			}
			requireSameState(t, wantModel, gotModel)
		})
	}
}

// prefixSpy is a pass-through straggler policy that, at the start of every
// round of the runner it watches, checks the runner's prefix entries: an
// entry, once filled, stays filled with the same backing array for the rest
// of the run.
type prefixSpy struct {
	t      *testing.T
	r      *Runner
	rounds int
	first  map[int]*float32
}

func (s *prefixSpy) Complete(ids []int, _ []float64, _ *rand.Rand) []int {
	if s.r != nil {
		s.observe()
	}
	return append([]int(nil), ids...)
}

func (s *prefixSpy) observe() {
	s.t.Helper()
	s.rounds++
	for pos, e := range s.r.prefix {
		switch {
		case e.X == nil && s.first[pos] != nil:
			s.t.Errorf("observation %d: position %d lost its entry", s.rounds, pos)
		case e.X == nil:
		case s.first[pos] == nil:
			s.first[pos] = &e.X.Data()[0]
		case s.first[pos] != &e.X.Data()[0]:
			s.t.Errorf("observation %d: position %d's entry was built again", s.rounds, pos)
		}
	}
}

// TestPrefixRunsOncePerClientPerRun: the Runner runs a client's frozen
// groups once per run. Every trained position's entry appears after its
// first round and keeps its backing array in later rounds; it holds the bits
// of ForwardPrefix of the client's data through the global model; and the
// run equals one on a source-backed runner over the same clients, which
// keeps no entries and runs the prefix every round — untiered, and with
// tiers that freeze deeper than the global model, whose replicas run the
// groups in between on top of the entry, and with a budget that holds only
// the leading positions, the rest running the prefix every round.
func TestPrefixRunsOncePerClientPerRun(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)
	for _, tt := range []struct {
		name  string
		part  models.FinetunePart
		tiers string
		// kept is how many leading positions the budget holds, all when 0.
		kept int
	}{
		{"moderate", models.FinetuneModerate, "", 0},
		{"large, tiers at two depths", models.FinetuneLarge, "low:1,mid:1,full:1", 0},
		{"moderate, a budget for two positions", models.FinetuneModerate, "", 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Config{Rounds: 3, LocalEpochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.5,
				FinetunePart: tt.part, Selector: selection.Entropy{Temperature: 0.1},
				SelectFraction: 0.5, EvalEvery: 1, Seed: 23}
			if tt.tiers != "" {
				cfg.TierDist = mustDist(t, tt.tiers)
			}
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			spy := &prefixSpy{t: t, first: map[int]*float32{}}
			cfg.Straggler = spy
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			spy.r = r
			kept := len(clients)
			if tt.kept > 0 {
				kept = tt.kept
				r.prefixBytes = entryBytes(t, m, tt.part, clients[:kept])
			}
			hist, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			spy.observe()
			if spy.rounds != cfg.Rounds+1 || len(spy.first) != kept || len(r.prefix) != kept {
				t.Fatalf("%d observations, %d of %d positions with an entry (%d sized, want %d)",
					spy.rounds, len(spy.first), len(clients), len(r.prefix), kept)
			}
			p := m.FrozenDepth()
			if r.prefixDepth != p || p == 0 {
				t.Fatalf("entries at depth %d, global frozen depth %d", r.prefixDepth, p)
			}
			for pos, cl := range clients[:kept] {
				want := m.ForwardPrefix(cl.Data.X, p).Data()
				got := r.prefix[pos].X.Data()
				if len(got) != len(want) {
					t.Fatalf("position %d: entry of %d values, ForwardPrefix %d", pos, len(got), len(want))
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("position %d value %d: entry %v, ForwardPrefix %v", pos, i, got[i], want[i])
					}
				}
			}
			if tt.tiers != "" {
				depths := map[int]bool{}
				for _, tier := range cfg.TierDist.Tiers() {
					mask, err := TierMask(m, tier, m.TrainableGroupNames())
					if err != nil {
						t.Fatal(err)
					}
					c, err := m.Clone()
					if err != nil {
						t.Fatal(err)
					}
					if err := c.SetTrainableGroups(mask); err != nil {
						t.Fatal(err)
					}
					depths[c.FrozenDepth()] = true
				}
				if len(depths) < 2 || !depths[p+1] && !depths[p+2] {
					t.Fatalf("tier depths %v: want two, one deeper than the global's %d", depths, p)
				}
			}

			refModel, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Straggler = &prefixSpy{}
			ref, err := NewRunnerWithSource(cfg, refModel, eagerSource{clients: clients}, test)
			if err != nil {
				t.Fatal(err)
			}
			refHist, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ref.prefix != nil {
				t.Errorf("a source-backed runner sized %d prefix entries, want none", len(ref.prefix))
			}
			if !histEqual(refHist, hist) {
				t.Fatalf("run with prefix entries diverged from the per-round pass:\nper round: %+v\nentries:   %+v", refHist, hist)
			}
			requireSameState(t, refModel, m)
		})
	}
}

// entryBytes is what the prefix entries of clients take under part.
func entryBytes(t *testing.T, m *models.Model, part models.FinetunePart, clients []*Client) int {
	t.Helper()
	if err := m.SetFinetunePart(part); err != nil {
		t.Fatal(err)
	}
	shape, err := m.PrefixShape(m.FrozenDepth())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, cl := range clients {
		n += cl.Data.Len()
	}
	return 4 * tensor.Volume(shape) * n
}

// TestPrefixBudgetSizesLeadingPositions: sizePrefix gives entries to the
// eager pool's leading positions whose features fit in the budget together,
// and none past the first that does not fit. A WRN-16-1 on 3x32x32 inputs
// keeps 32x16x16 floats (32 KiB) per sample under FinetuneModerate, so
// clients of 600 samples take 18.75 MiB each and three fit in 64 MiB. The
// sizing reads only dataset lengths: no forward pass runs.
func TestPrefixBudgetSizesLeadingPositions(t *testing.T) {
	spec := models.Spec{Arch: models.ArchWRN, InputShape: []int{3, 32, 32}, NumClasses: 10,
		Depth: 16, WidthFactor: 1, InitSeed: 5}
	labels := func(n int) *data.Dataset { return &data.Dataset{Y: make([]int, n), NumClasses: 10} }
	for _, tt := range []struct {
		name  string
		part  models.FinetunePart
		sizes []int
		want  int
	}{
		{"three of five fit", models.FinetuneModerate, []int{600, 600, 600, 600, 10}, 3},
		{"all fit", models.FinetuneModerate, []int{600, 600, 10}, 3},
		{"the first does not fit", models.FinetuneModerate, []int{3000, 10}, 0},
		{"nothing frozen", models.FinetuneFull, []int{600}, 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			clients := make([]*Client, len(tt.sizes))
			for i, n := range tt.sizes {
				clients[i] = &Client{ID: i, Data: labels(n), Device: simtime.Device{FLOPSRate: 1e9}}
			}
			r, err := NewRunner(Config{Rounds: 1, LocalEpochs: 1, BatchSize: 16, LR: 0.1, FinetunePart: tt.part, Seed: 1},
				m, clients, labels(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetFinetunePart(tt.part); err != nil {
				t.Fatal(err)
			}
			if shape, err := m.PrefixShape(2); err != nil || fmt.Sprint(shape) != "[32 16 16]" {
				t.Fatalf("prefix shape %v (%v), want [32 16 16]", shape, err)
			}
			if err := r.sizePrefix(); err != nil {
				t.Fatal(err)
			}
			if len(r.prefix) != tt.want {
				t.Fatalf("%d positions sized, want %d", len(r.prefix), tt.want)
			}
		})
	}
}

// TestClientInputPassesEmptyDataThrough: a client whose dataset is empty has
// no features to keep; clientInput hands its own data to the round at group
// 0 and leaves the position's entry empty.
func TestClientInputPassesEmptyDataThrough(t *testing.T) {
	r := &Runner{prefix: make([]data.Dataset, 1), prefixDepth: 2}
	cl := &Client{ID: 0, Data: &data.Dataset{NumClasses: 10}}
	in, from, err := r.clientInput(nil, 0, cl)
	if err != nil || in != cl.Data || from != 0 || r.prefix[0].X != nil {
		t.Fatalf("clientInput = %p, %d, %v (entry %v), want the client's data at 0", in, from, err, r.prefix[0].X)
	}
}
