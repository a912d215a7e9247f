//go:build !race

// Under the race detector sync.Pool drops a quarter of what is put back, so
// the kernel pool's completion WaitGroups are reallocated and an exact
// allocation count means nothing; the plain test step runs this file.

package core

import (
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/tensor"
)

// TestPooledReplicaFeaturePassAndEpochsZeroAllocs guards the frozen-prefix
// pass: once a worker's replica has served one client of a size, rebinding it
// to the next, running that client's data through the frozen groups into the
// feature buffer and training E epochs on gathered feature rows allocates
// nothing. The feature buffer is therefore also the bound on the pass's
// memory: one (max N × prefix width) float32 buffer per worker. What a whole
// pooled client round still allocates is the selector's (scores, batches,
// indices) plus the per-round rng and the state list.
func TestPooledReplicaFeaturePassAndEpochsZeroAllocs(t *testing.T) {
	clients, _, _, spec := testFederation(t, 6, 0.5)
	global, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewLocalConfig(Config{LocalEpochs: 5, BatchSize: 16, LR: 0.1, Momentum: 0.5,
		FinetunePart: models.FinetuneModerate, Selector: selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := global.SetFinetunePart(cfg.FinetunePart); err != nil {
		t.Fatal(err)
	}
	rep, err := newReplica(global, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := clients[5] // the largest: every later client fits its buffers
	var stateBuf []*tensor.Tensor
	res, err := rep.train(cfg, cl, 1, &stateBuf)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, res.numSelected)
	for i := range idx {
		idx[i] = 2 * i
	}
	rng := tensor.NewRand(1, 2)
	allocs := testing.AllocsPerRun(10, func() {
		if err := rep.rebind(global, nil); err != nil {
			t.Fatal(err)
		}
		local, err := rep.feats.of(rep.model, rep.depth, cl.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.iter.Bind(local, idx, cfg.BatchSize); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < cfg.LocalEpochs; epoch++ {
			if _, err := trainEpoch(rep.head, rep.sgd, &rep.iter, &rep.loss, rng); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("rebind, feature pass and %d epochs allocate %v times on a warm replica, want 0", cfg.LocalEpochs, allocs)
	}
	round := testing.AllocsPerRun(10, func() {
		if err := rep.rebind(global, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.train(cfg, cl, 1, &stateBuf); err != nil {
			t.Fatal(err)
		}
	})
	if round > 30 {
		t.Errorf("a pooled client round allocates %v times, want <= 30 (25 measured)", round)
	}
	t.Logf("pooled client round: %v allocations", round)
}
