package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// sameRecord compares two round records field by field, treating NaN
// accuracies as equal.
func sameRecord(a, b RoundRecord) bool {
	accEq := a.TestAccuracy == b.TestAccuracy ||
		(math.IsNaN(a.TestAccuracy) && math.IsNaN(b.TestAccuracy))
	return a.Round == b.Round && a.CohortSize == b.CohortSize &&
		a.SchedPolicy == b.SchedPolicy && a.Participants == b.Participants &&
		accEq && a.MeanTrainLoss == b.MeanTrainLoss &&
		a.CumTrainSeconds == b.CumTrainSeconds && a.CumUplinkBytes == b.CumUplinkBytes
}

// TestAsyncFullBufferBitIdenticalToSync is the simulator half of the
// sync/async equivalence gate, now between two settings of one loop: an
// explicit buffer the size of the window with the identity staleness weigher
// must replay Run (which asks for the same thing in other words) bit for bit
// — every history field, every final model parameter, every carried codec
// residual — including under the admission rules the buffered loop used to
// refuse: a straggler policy that drops clients (the buffer then never fills
// and the round must still drain), device tiers, and an uplink codec.
func TestAsyncFullBufferBitIdenticalToSync(t *testing.T) {
	for _, tt := range []struct {
		name   string
		mutate func(*Config, []*Client)
	}{
		{name: "plain", mutate: func(*Config, []*Client) {}},
		{name: "deadline straggler", mutate: func(c *Config, clients []*Client) {
			clients[2].Device = simtime.Device{FLOPSRate: 1} // never makes the deadline
			c.Straggler = simtime.DeadlineStraggler{DeadlineSeconds: 1e6}
		}},
		{name: "tiers", mutate: func(c *Config, _ []*Client) { c.TierDist = mustDist(t, "low:1,mid:1,full:1") }},
		{name: "topk codec", mutate: func(c *Config, _ []*Client) { c.Codec = "topk:0.05" }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			build := func(async AsyncConfig) (*Runner, *models.Model) {
				cfg := Config{Rounds: 4, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 33, Async: async}
				clients, _, test, spec := testFederation(t, 5, 0.5)
				tt.mutate(&cfg, clients)
				m, err := models.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(cfg, m, clients, test)
				if err != nil {
					t.Fatal(err)
				}
				return r, m
			}

			rs, ms := build(AsyncConfig{})
			syncHist, err := rs.Run()
			if err != nil {
				t.Fatal(err)
			}
			ra, ma := build(AsyncConfig{Buffer: 5, MaxStaleness: -1, Weigher: strategy.IdentityStaleness()})
			asyncHist, err := ra.Run()
			if err != nil {
				t.Fatal(err)
			}

			if !histEqual(syncHist, asyncHist) {
				t.Fatalf("history diverged:\nsync  %+v\nasync %+v", syncHist, asyncHist)
			}
			requireSameState(t, ms, ma)
			sres, ares := rs.codecResiduals(), ra.codecResiduals()
			if len(sres) != len(ares) || (tt.name == "topk codec" && len(sres) == 0) {
				t.Fatalf("%d sync clients carry residuals, %d async", len(sres), len(ares))
			}
			for id, want := range sres {
				for i := range want {
					if !want[i].Equal(ares[id][i]) {
						t.Fatalf("client %d residual %d diverged", id, i)
					}
				}
			}
		})
	}
}

// TestAsyncPartialBufferAggregatesStale exercises the genuinely asynchronous
// regime: a pool with a 4x device-speed spread and a buffer smaller than the
// pool. Fast clients lap slow ones, so some folded updates must be stale,
// every aggregation must still fold exactly Buffer updates, and the run must
// still learn.
func TestAsyncPartialBufferAggregatesStale(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)
	for i, cl := range clients {
		// Spread: clients 0-2 fast, 3-5 progressively slower.
		cl.Device = simtime.Device{FLOPSRate: 1e9 / float64(1+i/3*3)}
	}
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{Rounds: 8, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 7,
		Async: AsyncConfig{Buffer: 3, MaxStaleness: -1, Weigher: strategy.InvSqrtStaleness()}}, m, clients, test)
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
	for i, rec := range hist.Records {
		if rec.Participants != 3 {
			t.Fatalf("aggregation %d folded %d updates, want buffer size 3", i+1, rec.Participants)
		}
	}
	if hist.FinalAccuracy <= 0.2 {
		t.Fatalf("async run did not learn: final accuracy %v", hist.FinalAccuracy)
	}
}

// TestAsyncMaxStalenessDiscards pins the discard path: with a strict
// staleness cap and a slow minority, some updates must be dropped (visible as
// CohortSize > Participants) while every aggregation still folds a full
// buffer.
func TestAsyncMaxStalenessDiscards(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	clients[4].Device = simtime.Device{FLOPSRate: 1e8} // 10x slower straggler
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{Rounds: 10, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 9,
		Async: AsyncConfig{Buffer: 2, MaxStaleness: 0, Weigher: strategy.IdentityStaleness()}}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	discards := 0
	for i, rec := range hist.Records {
		if rec.Participants != 2 {
			t.Fatalf("aggregation %d folded %d updates, want 2", i+1, rec.Participants)
		}
		discards += rec.CohortSize - rec.Participants
	}
	if discards == 0 {
		t.Fatal("staleness cap 0 with a 10x straggler discarded nothing")
	}
}

// TestAsyncDeterministicAcrossParallelism: the event-queue schedule and the
// fold order are independent of the training worker pool size.
func TestAsyncDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) History {
		clients, _, test, spec := testFederation(t, 4, 0.5)
		clients[0].Device = simtime.Device{FLOPSRate: 5e8}
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{
			Rounds: 4, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 42, Parallelism: par,
			Async: AsyncConfig{Buffer: 2, MaxStaleness: -1, Weigher: strategy.InvSqrtStaleness()},
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
	h1, h4 := run(1), run(4)
	if len(h1.Records) != len(h4.Records) {
		t.Fatalf("%d vs %d records", len(h1.Records), len(h4.Records))
	}
	for i := range h1.Records {
		if !sameRecord(h1.Records[i], h4.Records[i]) {
			t.Fatalf("aggregation %d diverged across parallelism:\nserial   %+v\nparallel %+v",
				i+1, h1.Records[i], h4.Records[i])
		}
	}
}

// TestAsyncConfigRejections pins the loop's two refusals — a buffer outside
// [0, window], and checkpoint or resume while updates stay in flight — and,
// one case each, that what the buffered loop used to refuse on top of them
// now runs. Buffer 0 is the synchronous run.
func TestAsyncConfigRejections(t *testing.T) {
	base := Config{Rounds: 2, LocalEpochs: 1, LR: 0.1, Seed: 1}
	partial := AsyncConfig{Buffer: 2, MaxStaleness: -1}
	full := AsyncConfig{Buffer: 3, MaxStaleness: -1}

	tests := []struct {
		name    string
		mutate  func(*Config)
		acfg    AsyncConfig
		resume  bool
		refused bool
	}{
		{name: "negative buffer", acfg: AsyncConfig{Buffer: -1}, refused: true},
		{name: "zero buffer", acfg: AsyncConfig{Buffer: 0}},
		{name: "buffer exceeds pool", acfg: AsyncConfig{Buffer: 4}, refused: true},
		{name: "buffer exceeds cohort", mutate: func(c *Config) { c.CohortSize = 2 }, acfg: full, refused: true},
		{name: "checkpointing", mutate: func(c *Config) {
			c.CheckpointDir = t.TempDir()
			c.CheckpointEvery = 1
		}, acfg: partial, refused: true},
		{name: "resume", acfg: partial, resume: true, refused: true},

		{name: "checkpointing a full buffer", mutate: func(c *Config) { c.CheckpointDir = t.TempDir() }, acfg: full},
		{name: "resuming a full buffer", acfg: full, resume: true},
		{name: "cohort scheduling", mutate: func(c *Config) { c.CohortSize = 2 }, acfg: AsyncConfig{Buffer: 1, MaxStaleness: -1}},
		{name: "straggler policy", mutate: func(c *Config) {
			c.Straggler = simtime.DeadlineStraggler{DeadlineSeconds: 1}
		}, acfg: partial},
		{name: "tiers", mutate: func(c *Config) { c.TierDist = mustDist(t, "low:1,full:1") }, acfg: partial},
		{name: "codec", mutate: func(c *Config) { c.Codec = "int8" }, acfg: partial},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			clients, _, test, spec := testFederation(t, 3, 0.5)
			cfg := base
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			newRunner := func(rounds int, async AsyncConfig) *Runner {
				m, err := models.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Rounds, cfg.Async = rounds, async
				r, err := NewRunner(cfg, m, clients, test)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := newRunner(2, tt.acfg)
			if tt.resume {
				first := newRunner(1, AsyncConfig{})
				if _, err := first.Run(); err != nil {
					t.Fatal(err)
				}
				state, err := first.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := state.RestoreInto(r); err != nil {
					t.Fatal(err)
				}
			}
			hist, err := r.Run()
			if tt.refused {
				if !errors.Is(err, ErrConfig) {
					t.Fatalf("expected ErrConfig, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(hist.Records) != 2 {
				t.Fatalf("%d records, want 2", len(hist.Records))
			}
			if cfg.CheckpointDir != "" {
				if _, err := LoadLatestRunState(cfg.CheckpointDir); err != nil {
					t.Fatalf("no checkpoint after a full-buffer run: %v", err)
				}
			}
		})
	}
}

// runDigest condenses a run into one comparable value: the history's %+v
// rendering plus the bits of every float of the final model state.
func runDigest(hist History, m *models.Model) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", hist)
	for _, ts := range m.StateTensors() {
		for _, v := range ts.Data() {
			fmt.Fprintf(h, "%08x", math.Float32bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAsyncPartialBufferDigests pins the genuinely asynchronous regime bit
// for bit: buffers smaller than the pool, staleness discounts, discards and
// immediate re-dispatch. The first four digests were captured from the
// standalone buffered loop, two merges ago; the rows with a mutate are the
// combinations the one loop newly admits (a straggler policy, device tiers,
// an uplink codec under overlapping rounds), recorded when it did.
func TestAsyncPartialBufferDigests(t *testing.T) {
	for _, tt := range []struct {
		name         string
		mixed        bool
		buffer       int
		maxStaleness int
		mutate       func(*Config)
		want         string
	}{
		{name: "mixed/buffer3/unlimited", mixed: true, buffer: 3, maxStaleness: -1, want: "d6f0c6754ab0b99b"},
		{name: "mixed/buffer2/stale1", mixed: true, buffer: 2, maxStaleness: 1, want: "4e93ade5dc3ccf32"},
		{name: "mixed/buffer1/stale0", mixed: true, buffer: 1, maxStaleness: 0, want: "dc0d6757bde8e560"},
		{name: "uniform/buffer2/stale1", buffer: 2, maxStaleness: 1, want: "fb8edb5937ba3403"},
		{name: "mixed/buffer2/stale1/fraction straggler", mixed: true, buffer: 2, maxStaleness: 1,
			mutate: func(c *Config) { c.Straggler = simtime.FractionParticipation{Fraction: 0.7} }, want: "7dab6e59d4b48d33"},
		{name: "mixed/buffer3/unlimited/tiers", mixed: true, buffer: 3, maxStaleness: -1,
			mutate: func(c *Config) { c.TierDist = mustDist(t, "low:1,mid:1,full:1") }, want: "94849b722f21d295"},
		{name: "mixed/buffer2/stale1/topk codec", mixed: true, buffer: 2, maxStaleness: 1,
			mutate: func(c *Config) { c.Codec = "topk:0.05" }, want: "9df552125a5f172e"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clients, _, test, spec := testFederation(t, 6, 0.5)
			if tt.mixed {
				for i, cl := range clients {
					cl.Device = simtime.Device{FLOPSRate: 1e9 / float64(1+i/2*3)}
				}
			}
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Rounds: 8, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, EvalEvery: 3, Seed: 7,
				Async: AsyncConfig{Buffer: tt.buffer, MaxStaleness: tt.maxStaleness, Weigher: strategy.InvSqrtStaleness()}}
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(hist, m); got != tt.want {
				t.Fatalf("digest %s, want %s", got, tt.want)
			}
		})
	}
}
