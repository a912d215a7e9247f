package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/selection"
)

// keptReplica is the replica LocalUpdate currently keeps for m, nil if none.
func keptReplica(m *models.Model) *replica {
	kept.Lock()
	defer kept.Unlock()
	return kept.reps[weak.Make(m)]
}

// TestLocalUpdateKeptReplicaMatchesFresh drives one model through a sequence
// of LocalUpdate calls — three rounds with new installed state each, a layer
// mask and its removal, a changed LR, a FedProx μ twice, a moderate EDS
// config with a frozen prefix, and the first config again — and holds every call to the
// same call on a fresh one-shot replica (reuseReplicas off), bit for bit. It
// also pins when the kept replica is reused and when a call replaces it.
func TestLocalUpdateKeptReplicaMatchesFresh(t *testing.T) {
	clients, _, _, spec := testFederation(t, 6, 0.5)
	base := Config{LocalEpochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.5, Selector: selection.All{}, Seed: 5}
	lr := base
	lr.LR = 0.05
	prox := base
	prox.Strategy = mustFedProx(0.5)
	eds := base
	eds.FinetunePart, eds.Selector, eds.SelectFraction = models.FinetuneModerate, selection.Entropy{Temperature: 0.1}, 0.5
	steps := []struct {
		name  string
		cfg   Config
		mask  []string
		reuse bool // the kept replica of the step before serves this one
	}{
		{"round 1", base, nil, false},
		{"round 2", base, nil, true},
		{"round 3", base, nil, true},
		{"mask", base, []string{models.GroupUp, models.GroupClassifier}, true},
		{"mask lifted", base, nil, true},
		{"changed lr", lr, nil, false},
		{"fedprox", prox, nil, false},
		{"fedprox again", prox, nil, true},
		{"moderate eds", eds, nil, false},
		{"first config again", base, nil, false},
	}
	run := func(pooled bool) []string {
		prev := reuseReplicas
		reuseReplicas = pooled
		defer func() { reuseReplicas = prev }()
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]string, len(steps))
		for i, st := range steps {
			// Install new global state, as a client does every round.
			for _, p := range m.Params() {
				for j, w := range p.W.Data() {
					p.W.Data()[j] = w + float32(i+1)*1e-3*float32(j%7-3)
				}
			}
			cfg, err := NewLocalConfig(st.cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := keptReplica(m)
			out, err := LocalUpdate(cfg, m, clients[i%len(clients)], i+1, st.mask...)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			digests[i] = outcomeDigest(out, true)
			if after := keptReplica(m); pooled && (after == nil || (after == before) != st.reuse) {
				t.Errorf("%s: kept replica reused = %v, want %v", st.name, after == before, st.reuse)
			}
		}
		return digests
	}
	fresh, kept := run(false), run(true)
	for i, st := range steps {
		if kept[i] != fresh[i] {
			t.Errorf("%s: kept replica gives %s, a fresh one %s", st.name, kept[i], fresh[i])
		}
	}
}

// TestLocalUpdateConcurrentSameModel runs one LocalUpdate per client on a
// single model at once: each call must train a replica of its own, so its
// outcome equals the same call run alone on a fresh replica, and the race
// detector sees no replica shared between two calls. State is not read in
// the concurrent phase: it is valid only until the next call on the model
// begins. Serial calls afterwards must still match fresh ones, State
// included.
func TestLocalUpdateConcurrentSameModel(t *testing.T) {
	clients, _, _, spec := testFederation(t, 6, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewLocalConfig(Config{LocalEpochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.5,
		Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	call := func(cl *Client, withState bool) string {
		out, err := LocalUpdate(cfg, m, cl, 2)
		if err != nil {
			t.Error(err)
			return ""
		}
		return outcomeDigest(out, withState)
	}
	want, wantState := make([]string, len(clients)), make([]string, len(clients))
	prev := reuseReplicas
	defer func() { reuseReplicas = prev }()
	reuseReplicas = false
	for i, cl := range clients {
		want[i], wantState[i] = call(cl, false), call(cl, true)
	}
	reuseReplicas = true

	call(clients[0], false) // leave a kept replica for one of the calls to take
	got := make([]string, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = call(cl, false)
		}()
	}
	wg.Wait()
	for i := range clients {
		if got[i] != want[i] {
			t.Errorf("client %d: concurrent call gives %s, alone on a fresh replica %s", i, got[i], want[i])
		}
		if g := call(clients[i], true); g != wantState[i] {
			t.Errorf("client %d: serial call after the concurrent ones gives %s, fresh %s", i, g, wantState[i])
		}
	}
}

// TestUntrainedModelHoldsNoGradients pins who owns gradient memory: a built
// model and its clone hold none; one training step allocates it for exactly
// the parameters that trained, a frozen prefix staying without; and the
// models a federation only installs into and aggregates into — the global a
// LocalUpdate is called on, a Runner's global — never get any.
func TestUntrainedModelHoldsNoGradients(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	noGrads := func(what string, m *models.Model) {
		t.Helper()
		for i, p := range m.Params() {
			if p.G != nil {
				t.Errorf("%s: param %d (%s) holds a gradient", what, i, p.Name)
			}
		}
	}
	global, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := global.Clone()
	if err != nil {
		t.Fatal(err)
	}
	noGrads("built model", global)
	noGrads("clone", clone)

	if err := clone.SetFinetunePart(models.FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	if clone.FrozenDepth() == 0 {
		t.Fatal("moderate finetuning freezes no prefix")
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.1, Momentum: 0.5}, clone.TrainableParams())
	if err != nil {
		t.Fatal(err)
	}
	batches, err := clients[0].Data.Batches(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ls nn.LossScratch
	_, dl, err := nn.SoftmaxCrossEntropy{}.LossInto(&ls, clone.Forward(batches[0].X, true), batches[0].Y)
	if err != nil {
		t.Fatal(err)
	}
	clone.Backward(dl)
	sgd.Step()
	trains := map[*nn.Param]bool{}
	for _, p := range clone.TrainableParams() {
		trains[p] = true
	}
	for i, p := range clone.Params() {
		if has := p.G != nil; has != trains[p] {
			t.Errorf("after one step, param %d (%s, trains %v) holds a gradient: %v", i, p.Name, trains[p], has)
		}
	}

	cfg := Config{Rounds: 1, LocalEpochs: 1, BatchSize: 8, LR: 0.1, Selector: selection.All{}, Seed: 3}
	local, err := NewLocalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LocalUpdate(local, global, clients[0], 1); err != nil {
		t.Fatal(err)
	}
	noGrads("LocalUpdate's global", global)
	runner, err := NewRunner(cfg, global, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	noGrads("Runner's global", global)
}

// TestLocalUpdateReplicaDiesWithModel pins the weak key: once the model a
// LocalUpdate was called on is unreachable, the collector reclaims it and
// its kept replica goes with it, so the cache holds nothing for models a
// caller has dropped.
func TestLocalUpdateReplicaDiesWithModel(t *testing.T) {
	clients, _, _, spec := testFederation(t, 2, 0.5)
	cfg, err := NewLocalConfig(Config{LocalEpochs: 1, BatchSize: 8, LR: 0.1, Selector: selection.All{}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trainOnce := func() weak.Pointer[models.Model] {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LocalUpdate(cfg, m, clients[0], 1); err != nil {
			t.Fatal(err)
		}
		if keptReplica(m) == nil {
			t.Fatal("LocalUpdate kept no replica")
		}
		return weak.Make(m)
	}
	key := trainOnce()
	held := func() bool {
		kept.Lock()
		defer kept.Unlock()
		_, ok := kept.reps[key]
		return ok
	}
	// Cleanups run on their own goroutine after the cycle that finds the
	// model unreachable: collect until the entry is gone.
	for i := 0; i < 200 && held(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if key.Value() != nil || held() {
		t.Fatalf("model collected: %v; cache entry still held: %v", key.Value() == nil, held())
	}
}
