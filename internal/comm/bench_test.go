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

// codecBenchShapes is the state a TCP workload's client ships each round
// (bench/tcp.go): the 64-input, 512-hidden, 10-class MLP's trainable
// tensors, 569,866 parameters in 20 tensors.
var codecBenchShapes = [][]int{
	{512, 64}, {512}, {512}, {512}, {512, 512}, {512}, {512}, {512},
	{512, 512}, {512}, {512}, {512}, {10, 512}, {10}, {512}, {512}, {512}, {512}, {512}, {512},
}

// codecBenchState builds a broadcast reference at codecBenchShapes and a
// trained state a small delta away from it, as one local round leaves it.
func codecBenchState() (ref, ts []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(38))
	for _, sh := range codecBenchShapes {
		r, x := tensor.New(sh...), tensor.New(sh...)
		r.FillNormal(rng, 0, 0.05)
		for i := range x.Data() {
			x.Data()[i] = r.Data()[i] + 1e-3*float32(rng.NormFloat64())
		}
		ref, ts = append(ref, r), append(ts, x)
	}
	return ref, ts
}

// codecBenchBytes is the float32 size of ts, the unit of the codec
// benchmarks' MB/s.
func codecBenchBytes(ts []*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		n += 4 * int64(t.Len())
	}
	return n
}

// codecBenchSpecs are the codecs the codec benchmarks compare.
var codecBenchSpecs = []string{"identity", "float16", "int8", "topk:0.05"}

// codecBenchSink keeps the benchmarked calls' results alive.
var codecBenchSink []byte

// BenchmarkCodecEncode measures each codec's Encode on the TCP workloads'
// state; MB/s is float32 state bytes encoded per second.
func BenchmarkCodecEncode(b *testing.B) {
	ref, ts := codecBenchState()
	for _, spec := range codecBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			codec, err := ParseCodec(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(codecBenchBytes(ts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if codecBenchSink, err = codec.Encode(ref, ts, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecDecode measures each codec's Decode of that state's payload
// into reused scratch, as the server's fold does; MB/s is float32 state
// bytes decoded per second.
func BenchmarkCodecDecode(b *testing.B) {
	ref, ts := codecBenchState()
	for _, spec := range codecBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			codec, err := ParseCodec(spec)
			if err != nil {
				b.Fatal(err)
			}
			blob, err := codec.Encode(ref, ts, 1)
			if err != nil {
				b.Fatal(err)
			}
			var scratch []*tensor.Tensor
			b.SetBytes(codecBenchBytes(ts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if scratch, err = codec.Decode(ref, scratch, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSplitmixStreams runs the quantizing encoders' Splitmix64 chains
// alone over codecBenchShapes, a draw per element in int8BlockSize batches:
// "serial" steps each tensor's chain to its end before the next starts, as
// the encoders did before their two streams; "two-streams" steps the chains
// on the encoders' schedule, two at a time while either stream has blocks
// left. It is the floor under BenchmarkCodecEncode/int8 and /float16 while
// the draws keep their order.
func BenchmarkSplitmixStreams(b *testing.B) {
	_, ts := codecBenchState()
	var u, v [int8BlockSize]uint32
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for ti, t := range ts {
				rng := newQuantRNG(uint64(i), ti)
				for n := 0; n < t.Len(); n += int8BlockSize {
					for j := range u {
						rng.state = tensor.Splitmix64(rng.state)
						u[j] = uint32(rng.state >> 32)
					}
				}
			}
		}
	})
	b.Run("two-streams", func(b *testing.B) {
		blob := make([]byte, 4+(1+4*2)*len(ts)+int(codecBenchBytes(ts))/2)
		jobs, err := quantSchedule(nil, blob, ts, 2, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each stream's chain, the blocks left in its tensor, and its
			// next job.
			var rng [2]quantRNG
			var left, next [2]int
			start := func(s int) bool {
				for ; next[s] < len(jobs); next[s]++ {
					if j := jobs[next[s]]; j.stream == s && ts[j.ti].Len() > 0 {
						rng[s], left[s] = newQuantRNG(uint64(i), j.ti), (ts[j.ti].Len()+int8BlockSize-1)/int8BlockSize
						next[s]++
						return true
					}
				}
				return false
			}
			ok := [2]bool{start(0), start(1)}
			for ok[0] || ok[1] {
				tensor.SplitmixDrawsPair(u[:], v[:], &rng[0].state, &rng[1].state)
				for s := range ok {
					if left[s]--; ok[s] && left[s] == 0 {
						ok[s] = start(s)
					}
				}
			}
		}
	})
}
