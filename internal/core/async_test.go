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

// TestAsyncFullBufferBitIdenticalToSync is the simulator half of the issue's
// sync/async equivalence gate: a buffer the size of the pool with the
// identity staleness weigher must replay the synchronous engine bit for bit —
// every history field and every final model parameter.
func TestAsyncFullBufferBitIdenticalToSync(t *testing.T) {
	cfg := Config{Rounds: 4, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 33}
	build := func() (*Runner, *models.Model) {
		clients, _, test, spec := testFederation(t, 5, 0.5)
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

	rs, ms := build()
	syncHist, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	ra, ma := build()
	asyncHist, err := ra.RunAsync(AsyncConfig{
		Buffer:       5,
		MaxStaleness: -1,
		Weigher:      strategy.IdentityStaleness(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(asyncHist.Records) != len(syncHist.Records) {
		t.Fatalf("%d async records, %d sync", len(asyncHist.Records), len(syncHist.Records))
	}
	for i := range syncHist.Records {
		if !sameRecord(syncHist.Records[i], asyncHist.Records[i]) {
			t.Fatalf("record %d diverged:\nsync  %+v\nasync %+v",
				i+1, syncHist.Records[i], asyncHist.Records[i])
		}
	}
	if syncHist.BestAccuracy != asyncHist.BestAccuracy ||
		syncHist.FinalAccuracy != asyncHist.FinalAccuracy ||
		syncHist.TotalTrainSeconds != asyncHist.TotalTrainSeconds ||
		syncHist.TotalUplinkBytes != asyncHist.TotalUplinkBytes ||
		syncHist.TotalDownlinkBytes != asyncHist.TotalDownlinkBytes {
		t.Fatalf("history totals diverged:\nsync  %+v\nasync %+v", syncHist, asyncHist)
	}

	st, at := ms.StateTensors(), ma.StateTensors()
	if len(st) != len(at) {
		t.Fatalf("%d sync state tensors, %d async", len(st), len(at))
	}
	for ti := range st {
		sd, ad := st[ti].Data(), at[ti].Data()
		for k := range sd {
			if sd[k] != ad[k] {
				t.Fatalf("state tensor %d diverged at element %d: sync %v async %v",
					ti, k, sd[k], ad[k])
			}
		}
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
	r, err := NewRunner(Config{Rounds: 8, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 7}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.RunAsync(AsyncConfig{Buffer: 3, MaxStaleness: -1, Weigher: strategy.InvSqrtStaleness()})
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
	r, err := NewRunner(Config{Rounds: 10, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 9}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.RunAsync(AsyncConfig{Buffer: 2, MaxStaleness: 0, Weigher: strategy.IdentityStaleness()})
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
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.RunAsync(AsyncConfig{Buffer: 2, MaxStaleness: -1, Weigher: strategy.InvSqrtStaleness()})
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

func TestAsyncConfigRejections(t *testing.T) {
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Rounds: 2, LocalEpochs: 1, LR: 0.1, Seed: 1}
	ok := AsyncConfig{Buffer: 2, MaxStaleness: -1}

	tests := []struct {
		name   string
		mutate func(*Config)
		acfg   AsyncConfig
	}{
		{name: "zero buffer", mutate: func(c *Config) {}, acfg: AsyncConfig{Buffer: 0}},
		{name: "buffer exceeds pool", mutate: func(c *Config) {}, acfg: AsyncConfig{Buffer: 4}},
		{name: "cohort scheduling", mutate: func(c *Config) { c.CohortSize = 2 }, acfg: ok},
		{name: "straggler policy", mutate: func(c *Config) {
			c.Straggler = simtime.DeadlineStraggler{DeadlineSeconds: 1}
		}, acfg: ok},
		{name: "checkpointing", mutate: func(c *Config) {
			c.CheckpointDir = t.TempDir()
			c.CheckpointEvery = 1
		}, acfg: ok},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunAsync(tt.acfg); !errors.Is(err, ErrConfig) {
				t.Fatalf("expected ErrConfig, got %v", err)
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
// immediate re-dispatch. The digests were captured from the standalone
// RunAsync loop before it became the full-window, unscheduled case of the
// buffered loop RunFleetAsync runs.
func TestAsyncPartialBufferDigests(t *testing.T) {
	for _, tt := range []struct {
		name         string
		mixed        bool
		buffer       int
		maxStaleness int
		want         string
	}{
		{name: "mixed/buffer3/unlimited", mixed: true, buffer: 3, maxStaleness: -1, want: "b85866991f365d7f"},
		{name: "mixed/buffer2/stale1", mixed: true, buffer: 2, maxStaleness: 1, want: "b50dcd99d23a6a00"},
		{name: "mixed/buffer1/stale0", mixed: true, buffer: 1, maxStaleness: 0, want: "958bb8c75b49360f"},
		{name: "uniform/buffer2/stale1", buffer: 2, maxStaleness: 1, want: "05dc5fb5d0db1f01"},
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
			r, err := NewRunner(Config{Rounds: 8, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, EvalEvery: 3, Seed: 7}, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.RunAsync(AsyncConfig{Buffer: tt.buffer, MaxStaleness: tt.maxStaleness, Weigher: strategy.InvSqrtStaleness()})
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(hist, m); got != tt.want {
				t.Fatalf("digest %s, want %s", got, tt.want)
			}
		})
	}
}
