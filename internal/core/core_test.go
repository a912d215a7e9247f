package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/partition"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// testFederation builds a small synthetic federation: numClients clients with
// Dirichlet-partitioned data, one test set, and a fresh MLP.
func testFederation(t *testing.T, numClients int, alpha float64) ([]*Client, *data.Dataset, *data.Dataset, models.Spec) {
	t.Helper()
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	pool, err := suite.Target10.GenerateBalanced(numClients*60, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := suite.Target10.GenerateBalanced(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Dirichlet(pool.Y, numClients, alpha, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, numClients)
	for i, idxs := range parts {
		ds, err := pool.Subset(idxs)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &Client{ID: i, Data: ds, Device: simtime.Device{FLOPSRate: 1e9}}
	}
	spec := models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{64},
		NumClasses: 10,
		Hidden:     32,
		InitSeed:   13,
	}
	return clients, pool, test, spec
}

// mustFedProx is strategy.FedProx for a μ the test knows to be valid.
func mustFedProx(mu float64) strategy.Strategy {
	s, err := strategy.FedProx(mu)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewRunnerValidation(t *testing.T) {
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	valid := Config{Rounds: 1, LocalEpochs: 1, LR: 0.1, Seed: 1}

	tests := []struct {
		name    string
		mutate  func(*Config)
		global  *models.Model
		clients []*Client
		test    *data.Dataset
	}{
		{name: "zero rounds", mutate: func(c *Config) { c.Rounds = 0 }, global: m, clients: clients, test: test},
		{name: "zero epochs", mutate: func(c *Config) { c.LocalEpochs = 0 }, global: m, clients: clients, test: test},
		{name: "zero lr", mutate: func(c *Config) { c.LR = 0 }, global: m, clients: clients, test: test},
		{name: "bad momentum", mutate: func(c *Config) { c.Momentum = 1 }, global: m, clients: clients, test: test},
		{name: "bad fraction", mutate: func(c *Config) { c.SelectFraction = 2 }, global: m, clients: clients, test: test},
		{name: "nan lr", mutate: func(c *Config) { c.LR = math.NaN() }, global: m, clients: clients, test: test},
		{name: "inf lr", mutate: func(c *Config) { c.LR = math.Inf(1) }, global: m, clients: clients, test: test},
		{name: "nan momentum", mutate: func(c *Config) { c.Momentum = math.NaN() }, global: m, clients: clients, test: test},
		{name: "nan fraction", mutate: func(c *Config) { c.SelectFraction = math.NaN() }, global: m, clients: clients, test: test},
		{name: "nil model", mutate: func(c *Config) {}, global: nil, clients: clients, test: test},
		{name: "no clients", mutate: func(c *Config) {}, global: m, clients: nil, test: test},
		{name: "nil test", mutate: func(c *Config) {}, global: m, clients: clients, test: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := NewRunner(cfg, tt.global, tt.clients, tt.test); !errors.Is(err, ErrConfig) {
				t.Fatalf("expected ErrConfig, got %v", err)
			}
		})
	}
}

func TestFedAvgLearns(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	initialAcc, err := metrics.Accuracy(m, test)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 8, LocalEpochs: 2, LR: 0.1, Momentum: 0.5, Seed: 21,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Records) != 8 {
		t.Fatalf("%d records, want 8", len(hist.Records))
	}
	if hist.FinalAccuracy <= initialAcc+0.1 {
		t.Fatalf("FedAvg did not learn: %v -> %v", initialAcc, hist.FinalAccuracy)
	}
	if hist.TotalTrainSeconds <= 0 || hist.TotalUplinkBytes <= 0 {
		t.Fatal("accounting not populated")
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) History {
		clients, _, test, spec := testFederation(t, 4, 0.5)
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{
			Rounds: 3, LocalEpochs: 1, LR: 0.1, Momentum: 0.5,
			Seed: 42, Parallelism: par,
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := run(1)
	h4 := run(4)
	for i := range h1.Records {
		a, b := h1.Records[i].TestAccuracy, h4.Records[i].TestAccuracy
		if a != b {
			t.Fatalf("round %d: accuracy %v (serial) vs %v (parallel)", i+1, a, b)
		}
	}
}

func TestFedFTCommunicatesLessAndKeepsLowerFrozen(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)

	runWith := func(part models.FinetunePart) (History, *models.Model) {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{
			Rounds: 2, LocalEpochs: 1, LR: 0.1, Momentum: 0.5,
			FinetunePart: part, Seed: 5,
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h, m
	}

	full, _ := runWith(models.FinetuneFull)
	mBefore, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ft, mAfter := runWith(models.FinetuneModerate)

	if ft.TotalUplinkBytes >= full.TotalUplinkBytes {
		t.Fatalf("FedFT uplink %d >= FedAvg uplink %d", ft.TotalUplinkBytes, full.TotalUplinkBytes)
	}
	if ft.TotalTrainSeconds >= full.TotalTrainSeconds {
		t.Fatalf("FedFT train time %v >= FedAvg %v", ft.TotalTrainSeconds, full.TotalTrainSeconds)
	}
	// Frozen groups must be bit-identical to initialization.
	for _, g := range []string{models.GroupLow, models.GroupMid} {
		want, err := mBefore.GroupStateTensors([]string{g})
		if err != nil {
			t.Fatal(err)
		}
		got, err := mAfter.GroupStateTensors([]string{g})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("frozen group %q tensor %d changed during FedFT", g, i)
			}
		}
	}
}

func TestFedProxRunsAndStaysCloserToGlobal(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.1)

	drift := func(strat strategy.Strategy) float64 {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]*tensor.Tensor, 0)
		for _, p := range m.Params() {
			before = append(before, p.W.Clone())
		}
		r, err := NewRunner(Config{
			Rounds: 2, LocalEpochs: 3, LR: 0.1, Momentum: 0.5,
			Strategy: strat, Seed: 7,
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		var d float64
		for i, p := range m.Params() {
			diff := p.W.Clone()
			if err := diff.Sub(before[i]); err != nil {
				t.Fatal(err)
			}
			d += diff.Norm2()
		}
		return d
	}
	plain := drift(nil)
	prox := drift(mustFedProx(1.0))
	if prox >= plain {
		t.Fatalf("FedProx drift %v >= FedAvg drift %v", prox, plain)
	}
}

func TestEDSSelectionRuns(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.1)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 3, LocalEpochs: 2, LR: 0.1, Momentum: 0.5,
		FinetunePart:   models.FinetuneModerate,
		Selector:       selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.2,
		Seed:           8,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The selection pass must be charged in the accounting.
	if hist.TotalTrainSeconds <= 0 {
		t.Fatal("no time accounted")
	}
	eff, err := hist.LearningEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	if eff <= 0 {
		t.Fatalf("learning efficiency %v", eff)
	}
}

func TestStragglerFractionReducesParticipants(t *testing.T) {
	clients, _, test, spec := testFederation(t, 10, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 2, LocalEpochs: 1, LR: 0.1,
		Straggler: simtime.FractionParticipation{Fraction: 0.3},
		Seed:      9,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range hist.Records {
		if rec.Participants != 3 {
			t.Fatalf("round %d: %d participants, want 3", rec.Round, rec.Participants)
		}
	}
}

// TestAggregateWeighting is a white-box test of the weighted fusion through
// the simulator's fold: two clients with states 0 and 1 and selected counts 1
// and 3 fuse to 0.75 under the default selected-size weighting, and to 0.5
// under uniform weighting.
func TestAggregateWeighting(t *testing.T) {
	for _, tt := range []struct {
		name      string
		weighting strategy.Weighting
		want      float64
	}{
		{"selected", strategy.WeightBySelected, 0.75},
		{"uniform", strategy.WeightUniform, 0.5},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clients, _, test, spec := testFederation(t, 2, 0.5)
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			strat, err := strategy.FedAvgWith(tt.weighting, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(Config{Rounds: 1, LocalEpochs: 1, LR: 0.1, Seed: 3, Strategy: strat},
				m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.prepareRun(); err != nil {
				t.Fatal(err)
			}
			l := r.newLoop()
			if err := l.newFold(nil); err != nil {
				t.Fatal(err)
			}
			for pos, nsel := range []int{1, 3} {
				state := make([]*tensor.Tensor, len(r.commState))
				for i, ts := range r.commState {
					state[i] = tensor.New(ts.Shape()...)
					state[i].Fill(float32(pos))
				}
				l.pend[pos] = &flight{res: clientResult{state: state, numSelected: nsel, localSize: 2 * nsel}}
				if err := l.add(pos); err != nil {
					t.Fatal(err)
				}
			}
			fused, err := l.agg.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.strat.ApplyAggregate(r.commState, fused); err != nil {
				t.Fatal(err)
			}
			for _, ts := range r.commState {
				for _, v := range ts.Data() {
					if math.Abs(float64(v)-tt.want) > 1e-6 {
						t.Fatalf("aggregated value %v, want %v", v, tt.want)
					}
				}
			}
		})
	}
}

func TestTrainCentralizedLearns(t *testing.T) {
	_, pool, test, spec := testFederation(t, 5, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := TrainCentralized(m, pool, test, CentralConfig{
		Epochs: 6, LR: 0.1, Momentum: 0.5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.BestAccuracy < 0.5 {
		t.Fatalf("centralized accuracy %v, want > 0.5", hist.BestAccuracy)
	}
	if len(hist.EpochLosses) != 6 {
		t.Fatalf("%d epoch losses", len(hist.EpochLosses))
	}
	if hist.EpochLosses[5] >= hist.EpochLosses[0] {
		t.Fatalf("loss did not decrease: %v", hist.EpochLosses)
	}
}

// TestTrainCentralizedRejectsNonFiniteRates: NaN fails every comparison, so
// a NaN or infinite learning rate, or a NaN momentum, must be refused rather
// than trained into a NaN model.
func TestTrainCentralizedRejectsNonFiniteRates(t *testing.T) {
	_, pool, _, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]CentralConfig{
		"nan lr":       {Epochs: 1, LR: math.NaN()},
		"inf lr":       {Epochs: 1, LR: math.Inf(1)},
		"nan momentum": {Epochs: 1, LR: 0.1, Momentum: math.NaN()},
	} {
		if _, err := TrainCentralized(m, pool, nil, cfg); err == nil {
			t.Errorf("%s: TrainCentralized accepted %+v", name, cfg)
		}
	}
}

func TestPretrainTransferHelpsInitialAccuracy(t *testing.T) {
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	source, err := suite.Source.GenerateBalanced(1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := suite.Target10.GenerateBalanced(400, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, err := suite.Target10.GenerateBalanced(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := models.Spec{
		Arch: models.ArchMLP, InputShape: []int{64}, NumClasses: 10,
		Hidden: 32, InitSeed: 16,
	}
	pre, err := PretrainTransfer(spec, source, CentralConfig{
		Epochs: 8, LR: 0.1, Momentum: 0.5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Fine-tune only the classifier for a few epochs on little data: the
	// pretrained extractor should make this far more effective.
	tune := func(m *models.Model) float64 {
		if err := m.SetFinetunePart(models.FinetuneClassifier); err != nil {
			t.Fatal(err)
		}
		h, err := TrainCentralized(m, train, test, CentralConfig{
			Epochs: 5, LR: 0.1, Momentum: 0.5, Seed: 18,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h.BestAccuracy
	}
	preAcc := tune(pre)
	freshAcc := tune(fresh)
	if preAcc <= freshAcc {
		t.Fatalf("pretrained classifier tuning %.3f <= fresh %.3f", preAcc, freshAcc)
	}
}
