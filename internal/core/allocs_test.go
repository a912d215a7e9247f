package core

import (
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// newWarmRunner builds a runner and runs it once to warm every scratch buffer
// (replicas, candidate scratch, state buffers, the fold buffer).
func newWarmRunner(t *testing.T, cfg Config) *Runner {
	t.Helper()
	clients, _, test, spec := testFederation(t, 6, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestScheduledSamplingSteadyStateAllocs guards the satellite perf fix: the
// candidate slice, cohort times, seen-set and participant list are runner and
// loop scratch, so admitting a scheduled cohort (pick, validate, straggler
// policy, acquire) allocates only what the policy itself draws (its rng and
// cohort slices), independent of the pool size.
func TestScheduledSamplingSteadyStateAllocs(t *testing.T) {
	r := newWarmRunner(t, Config{
		Rounds: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.1,
		Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
		CohortSize: 3, Parallelism: 2, Seed: 5,
	})
	l := r.newLoop()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := l.admit(l.pick(1, l.window), 1); err != nil {
			t.Fatal(err)
		}
	})
	// The uniform policy's fixed footprint: the derived rng (2), the
	// availability/permutation/cohort slices (4), the straggler rng (2) and
	// the chosen copy. Anything above 12 means a per-round buffer stopped
	// being reused.
	if allocs > 12 {
		t.Fatalf("scheduled sampling allocates %v times per round, want <= 12", allocs)
	}
}

// TestAggregateSteadyStateAllocs: once the aggregator, the fold buffer and
// the server-optimizer state are warm, a fold — every update encoded and
// added, Finish, ApplyAggregate — must not allocate, for the bit-identical
// fedavg path and for a stateful server optimizer alike.
func TestAggregateSteadyStateAllocs(t *testing.T) {
	for _, tt := range []struct {
		name string
		cfg  Config
	}{
		{
			name: "fedavg-legacy",
			cfg: Config{
				Rounds: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.1,
				Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
			},
		},
		{
			name: "fedadam",
			cfg: func() Config {
				strat, err := strategy.Parse("fedadam")
				if err != nil {
					panic(err)
				}
				return Config{
					Rounds: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.1,
					Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
					Strategy: strat, Parallelism: 2, Seed: 6,
				}
			}(),
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			r := newWarmRunner(t, tt.cfg)
			l := r.newLoop()
			if err := l.newFold(nil); err != nil {
				t.Fatal(err)
			}
			if err := l.dispatch(l.pick(1, l.window), 1); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				for pos := 0; pos < r.src.NumClients(); pos++ {
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
			})
			if allocs > 0 {
				t.Fatalf("a warm fold allocates %v times, want 0", allocs)
			}
		})
	}
}
