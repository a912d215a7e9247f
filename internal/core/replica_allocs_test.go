//go:build !race

// Under the race detector sync.Pool drops a quarter of what is put back, so
// the kernel pool's completion WaitGroups are reallocated and an exact
// allocation count means nothing; the plain test step runs this file.

package core

import (
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/tensor"
)

// TestPooledReplicaFeaturePassAndEpochsZeroAllocs guards the frozen-prefix
// pass: once a worker's replica has served one client of a size, rebinding it
// to the next, bringing that client's data to the replica's first trained
// group and training E epochs on gathered feature rows allocates nothing —
// from the raw data (LocalUpdate, and a Runner position without a prefix
// entry), from a kept entry at the replica's own depth (nothing runs), and
// from a kept entry below a deeper tier's mask (the groups in between run
// into the feature buffer). That buffer is therefore also the bound on the
// pass's memory: one (max N × prefix width) float32 buffer per worker. What a
// whole pooled client round still allocates is the selector's (scores,
// batches, indices) plus the per-round rng and the state list.
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
	p := global.FrozenDepth()
	x, err := rep.feats.pass(nil, rep.model, 0, p, cl.Data)
	if err != nil {
		t.Fatal(err)
	}
	entry := &data.Dataset{X: x, Y: cl.Data.Y, NumClasses: cl.Data.NumClasses}
	deeper := []string{models.GroupClassifier}
	for _, tt := range []struct {
		name string
		mask []string
		in   *data.Dataset
		from int
	}{
		{"raw data", nil, cl.Data, 0},
		{"kept entry", nil, entry, p},
		{"kept entry under a deeper mask", deeper, entry, p},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var stateBuf []*tensor.Tensor
			if err := rep.rebind(global, tt.mask); err != nil {
				t.Fatal(err)
			}
			res, err := rep.train(cfg, cl, tt.in, tt.from, 1, &stateBuf)
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]int, res.numSelected)
			for i := range idx {
				idx[i] = 2 * i
			}
			rng := tensor.NewRand(1, 2)
			allocs := testing.AllocsPerRun(10, func() {
				if err := rep.rebind(global, tt.mask); err != nil {
					t.Fatal(err)
				}
				local, err := rep.feats.of(rep.model, tt.from, rep.depth, tt.in)
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
				if err := rep.rebind(global, tt.mask); err != nil {
					t.Fatal(err)
				}
				if _, err := rep.train(cfg, cl, tt.in, tt.from, 1, &stateBuf); err != nil {
					t.Fatal(err)
				}
			})
			if round > 30 {
				t.Errorf("a pooled client round allocates %v times, want <= 30 (25 measured)", round)
			}
			t.Logf("pooled client round: %v allocations", round)
		})
	}
}
