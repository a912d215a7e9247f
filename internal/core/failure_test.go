package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
)

// failingSelector always errors, simulating a broken client-side component.
type failingSelector struct{}

var _ selection.Selector = failingSelector{}

var errInjected = errors.New("injected selector failure")

func (failingSelector) Name() string       { return "failing" }
func (failingSelector) ScoringPasses() int { return 0 }
func (failingSelector) Select(*models.Model, *data.Dataset, float64, *rand.Rand) ([]int, error) {
	return nil, errInjected
}

// emptyStraggler drops every client, simulating a pathological policy.
type emptyStraggler struct{}

var _ simtime.StragglerPolicy = emptyStraggler{}

func (emptyStraggler) Complete([]int, []float64, *rand.Rand) []int { return nil }

func TestRunPropagatesSelectorFailure(t *testing.T) {
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 2, LocalEpochs: 1, LR: 0.1,
		Selector: failingSelector{}, SelectFraction: 0.5, Seed: 1,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected error to propagate, got %v", err)
	}
}

func TestRunFailsWhenNoParticipants(t *testing.T) {
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 1, LocalEpochs: 1, LR: 0.1,
		Straggler: emptyStraggler{}, Seed: 1,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("expected error when the straggler policy drops everyone")
	}
}

// TestRunRefusesDivergedClient: a client with an Inf in its features trains to
// a non-finite loss. The fold refuses its update — charged, counted in the
// cohort, neither folded nor fed to the tracker — so the run completes on the
// other two and the global model stays finite. When every client diverges
// nothing folds, and the round fails naming the refusals.
func TestRunRefusesDivergedClient(t *testing.T) {
	for _, tt := range []struct {
		name     string
		diverged []int
	}{
		{"one of three", []int{1}},
		{"all three", []int{0, 1, 2}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clients, _, test, spec := testFederation(t, 3, 0.5)
			for _, pos := range tt.diverged {
				clients[pos].Data.X.Data()[0] = float32(math.Inf(1))
			}
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(Config{
				Rounds: 2, LocalEpochs: 1, LR: 0.1, Selector: selection.All{}, EvalEvery: 1, Seed: 1,
			}, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.Run()
			if len(tt.diverged) == len(clients) {
				if err == nil || !strings.Contains(err.Error(), "no update arrived to fold") ||
					!strings.Contains(err.Error(), "train loss") {
					t.Fatalf("run with every client diverged returned %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range hist.Records {
				if rec.Participants != 2 || rec.CohortSize != 3 {
					t.Errorf("round %d: %d folded of a cohort of %d, want 2 of 3", rec.Round, rec.Participants, rec.CohortSize)
				}
			}
			for i, ts := range m.StateTensors() {
				if !ts.IsFinite() {
					t.Errorf("global state tensor %d holds NaN or Inf", i)
				}
			}
		})
	}
}

// fixedScheduler and fixedStraggler answer every call with the same
// positions, whatever they were offered: broken plug-ins.
type fixedScheduler []int

func (fixedScheduler) Name() string { return "fixed" }
func (s fixedScheduler) Schedule(int, []sched.Candidate, int, *rand.Rand) []int {
	return append([]int(nil), s...)
}

type fixedStraggler []int

func (s fixedStraggler) Complete([]int, []float64, *rand.Rand) []int { return append([]int(nil), s...) }

// TestDispatchRejectsBrokenPlugins: a scheduler or straggler policy that
// hands the loop a repeated, in-flight or out-of-range position fails the run
// with ErrConfig naming the plug-in, on the synchronous and the buffered
// setting alike, before anybody trains (the selector would fail the run
// differently). At the parent commit the repeated position made Run train and
// weigh client 1 twice and made the buffered loop dereference a nil flight.
func TestDispatchRejectsBrokenPlugins(t *testing.T) {
	for _, tt := range []struct {
		name   string
		mutate func(*Config)
		buffer int
		names  string
	}{
		{name: "scheduler repeats a position", names: `scheduler "fixed"`, buffer: 2,
			mutate: func(c *Config) { c.Scheduler, c.CohortSize = fixedScheduler{1, 1, 2}, 3 }},
		{name: "scheduler out of range", names: `scheduler "fixed"`, buffer: 2,
			mutate: func(c *Config) { c.Scheduler, c.CohortSize = fixedScheduler{0, 1, 6}, 3 }},
		{name: "straggler outside its cohort", names: "straggler policy core.fixedStraggler", buffer: 2,
			mutate: func(c *Config) {
				c.Scheduler, c.CohortSize, c.Straggler = fixedScheduler{0, 1, 2}, 3, fixedStraggler{1, 5}
			}},
		{name: "straggler repeats a position", names: "straggler policy core.fixedStraggler", buffer: 4,
			mutate: func(c *Config) { c.Straggler = fixedStraggler{4, 4} }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clients, _, test, spec := testFederation(t, 6, 0.5)
			cfg := Config{Rounds: 3, LocalEpochs: 1, LR: 0.1, Selector: failingSelector{}, Seed: 1}
			tt.mutate(&cfg)
			for _, async := range []AsyncConfig{{}, {Buffer: tt.buffer, MaxStaleness: -1}} {
				m, err := models.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Async = async
				r, err := NewRunner(cfg, m, clients, test)
				if err != nil {
					t.Fatal(err)
				}
				_, err = r.Run()
				if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), tt.names) {
					t.Fatalf("err %v, want ErrConfig naming the %s", err, tt.names)
				}
			}
		})
	}

	// In flight: with a buffer of 1 under a window of 3, the second refill
	// asks for one client and is handed three, two of them still training.
	t.Run("scheduler picks a client in flight", func(t *testing.T) {
		clients, _, test, spec := testFederation(t, 6, 0.5)
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{Rounds: 3, LocalEpochs: 1, LR: 0.1, Seed: 1,
			Scheduler: fixedScheduler{0, 1, 2}, CohortSize: 3, Async: AsyncConfig{Buffer: 1, MaxStaleness: -1}}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := r.Run()
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "already in flight") || len(hist.Records) != 1 {
			t.Fatalf("err %v after %d rounds, want ErrConfig in the second refill", err, len(hist.Records))
		}
	})
}

func TestRunnerRejectsClientWithoutDevice(t *testing.T) {
	clients, _, test, spec := testFederation(t, 2, 0.5)
	clients[1].Device = simtime.Device{}
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(Config{Rounds: 1, LocalEpochs: 1, LR: 0.1}, m, clients, test); !errors.Is(err, ErrConfig) {
		t.Fatalf("expected ErrConfig, got %v", err)
	}
}

func TestRunnerRejectsClientWithEmptyData(t *testing.T) {
	clients, _, test, spec := testFederation(t, 2, 0.5)
	clients[0].Data = nil
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(Config{Rounds: 1, LocalEpochs: 1, LR: 0.1}, m, clients, test); !errors.Is(err, ErrConfig) {
		t.Fatalf("expected ErrConfig, got %v", err)
	}
}

func TestLocalUpdateStandaloneConfig(t *testing.T) {
	clients, _, _, spec := testFederation(t, 2, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewLocalConfig(Config{
		LocalEpochs: 1, LR: 0.1,
		FinetunePart: models.FinetuneModerate,
		Selector:     selection.Random{}, SelectFraction: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := LocalUpdate(cfg, m, clients[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumSelected != (clients[0].Data.Len()+1)/2 {
		t.Fatalf("selected %d of %d", out.NumSelected, clients[0].Data.Len())
	}
	if len(out.State) == 0 {
		t.Fatal("no state returned")
	}
	if out.Cost.Total() <= 0 {
		t.Fatal("no cost accounted")
	}
	// The global model must be untouched by the client's local update.
	m2, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range m.StateTensors() {
		if !ts.Equal(m2.StateTensors()[i]) {
			t.Fatal("LocalUpdate mutated the global model")
		}
	}
}

func TestNewLocalConfigRejectsInvalid(t *testing.T) {
	if _, err := NewLocalConfig(Config{LocalEpochs: 0, LR: 0.1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("expected ErrConfig, got %v", err)
	}
}

func TestRunSameSeedIdentical(t *testing.T) {
	run := func() []float64 {
		clients, _, test, spec := testFederation(t, 3, 0.1)
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{
			Rounds: 3, LocalEpochs: 2, LR: 0.1, Momentum: 0.5,
			Selector: selection.Random{}, SelectFraction: 0.5, Seed: 77,
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h.Curve()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: %v vs %v with identical seeds", i+1, a[i], b[i])
		}
	}
}

func TestDeadlineStragglerInRun(t *testing.T) {
	// Give one client a pathologically slow device; a deadline policy must
	// exclude it while the rest train.
	clients, _, test, spec := testFederation(t, 4, 0.5)
	clients[2].Device = simtime.Device{FLOPSRate: 1} // ~10⁹× slower
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 1, LocalEpochs: 1, LR: 0.1,
		Straggler: simtime.DeadlineStraggler{DeadlineSeconds: 1e6},
		Seed:      5,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hist.Records[0].Participants != 3 {
		t.Fatalf("%d participants, want 3 (slow client dropped)", hist.Records[0].Participants)
	}
}
