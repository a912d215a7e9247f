package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// drawMix makes draws well past the 607-entry wrap through every rand.Rand
// method whose output depends only on the source, returning them as bits.
func drawMix(r *rand.Rand, out []uint64) []uint64 {
	out = out[:0]
	for range 300 {
		out = append(out,
			uint64(r.Int63()), r.Uint64(),
			math.Float64bits(r.Float64()),
			math.Float64bits(r.NormFloat64()),
			math.Float64bits(r.ExpFloat64()),
			uint64(r.Intn(1000)), uint64(r.Int63n(1<<40+7)))
	}
	for _, v := range r.Perm(50) {
		out = append(out, uint64(v))
	}
	xs := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return append(out, xs...)
}

// TestSourceMatchesMathRand pins Source to math/rand's generator, bit for
// bit, on every seed class; reseeding mid-stream must restart it exactly.
func TestSourceMatchesMathRand(t *testing.T) {
	// Seed's normalisation edges (zero, the modulus and its multiples, both
	// signs, the value zero maps to, the int64 extremes), then DeriveSeed
	// outputs, the seeds every stream in the repository uses.
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	for i := range 10000 {
		seeds = append(seeds, DeriveSeed(uint64(i), 0xF1EE7C71))
	}
	var got, want []uint64
	reused := rand.New(NewSource(7))
	for _, s := range seeds {
		want = drawMix(rand.New(rand.NewSource(s)), want)
		if len(want) < 2000 {
			t.Fatalf("only %d draws per seed", len(want))
		}
		got = drawMix(rand.New(NewSource(s)), got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", s, i, got[i], want[i])
			}
		}
		reused.Seed(s) // mid-stream: reused has drawn from the previous seed
		got = drawMix(reused, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d reseeded mid-stream: draw %d = %#x, want %#x", s, i, got[i], want[i])
			}
		}
	}
	// A reseed after any prefix, including one that has not yet read every
	// state entry, restarts the stream: nothing of the old state leaks.
	for _, prefix := range []int{0, 1, 60, 61, 62, 272, 273, 274, 333, 334, 335, 606, 607} {
		src := NewSource(-5)
		for range prefix {
			src.Uint64()
		}
		src.Seed(11)
		ref := rand.NewSource(11).(rand.Source64)
		for i := range 1300 {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %#x, want %#x", prefix, i, g, w)
			}
		}
	}
}

var newRandSink uint64

// BenchmarkNewRand is the cost of one stream: derivation, seeding and the
// rand.Rand around it.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	var i uint64
	for b.Loop() {
		i++
		newRandSink += NewRand(i, 3).Uint64()
	}
}
