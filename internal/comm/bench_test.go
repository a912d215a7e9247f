package comm

// Relay-side benchmarks at a realistic region size: 32 leaf updates, each
// carrying an MLP-upper-part-sized state (~80k parameters across 4 tensors).
// The performance ledger (bench/, BENCHMARK.json) has no relay workload yet,
// so these are the only numbers for the region fold and its upstream encode.

import (
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// regionBenchUpdates builds a region's worth of leaf updates plus the
// broadcast they answer, shared by the region-delta benchmarks.
func regionBenchUpdates(b *testing.B, numUpdates int) (RoundStart, []ClientUpdate, int64) {
	b.Helper()
	shapes := [][]int{{256, 256}, {256}, {256, 64}, {64}}
	rng := rand.New(rand.NewSource(1))
	state := make([]*tensor.Tensor, len(shapes))
	for i, sh := range shapes {
		state[i] = tensor.New(sh...)
		state[i].FillNormal(rng, 0, 1)
	}
	blob, err := EncodeTensors(state)
	if err != nil {
		b.Fatal(err)
	}
	rs := RoundStart{Round: 1, State: blob, SelectFraction: 1, LocalEpochs: 1}
	updates := make([]ClientUpdate, numUpdates)
	var bytes int64
	for c := range updates {
		ts := make([]*tensor.Tensor, len(shapes))
		for i, sh := range shapes {
			ts[i] = tensor.New(sh...)
			ts[i].FillNormal(rng, 0, 1)
		}
		ub, err := EncodeTensors(ts)
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(ub))
		updates[c] = ClientUpdate{ClientID: c, Round: 1, State: ub,
			NumSelected: 10 + c, TrainSeconds: 0.5, TrainLoss: 1.5}
	}
	return rs, updates, bytes
}

// BenchmarkRegionDeltaFold measures the relay's per-round hot path: folding
// a region of leaf updates into one weighted delta — the same
// StreamAggregator life cycle a relay runs between NextRound and SendUpdate.
func BenchmarkRegionDeltaFold(b *testing.B) {
	_, updates, bytes := regionBenchUpdates(b, 32)
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewStreamAggregator()
		for _, u := range updates {
			if err := agg.Add(u); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := agg.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionDeltaEncode measures the upstream half: packaging a folded
// region state as the ClientUpdate wire frame (tensor encode plus envelope),
// the bytes a relay pushes to the root each round.
func BenchmarkRegionDeltaEncode(b *testing.B) {
	_, updates, _ := regionBenchUpdates(b, 32)
	agg := NewStreamAggregator()
	for _, u := range updates {
		if err := agg.Add(u); err != nil {
			b.Fatal(err)
		}
	}
	fused, err := agg.Finish()
	if err != nil {
		b.Fatal(err)
	}
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := EncodeTensors(fused)
		if err != nil {
			b.Fatal(err)
		}
		env, err := EncodeBody(MsgClientUpdate, ClientUpdate{ClientID: 0, Round: 1, State: blob, NumSelected: 32 * 16})
		if err != nil {
			b.Fatal(err)
		}
		if bytes == 0 {
			bytes = int64(len(env.Body))
			b.SetBytes(bytes)
		}
	}
}
