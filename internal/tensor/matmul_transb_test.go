package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// tripleLoopTransB is what MatMulTransB computes, by the definition: element
// (i, j) starts at +0 and takes a[i,p]·b[j,p] for p ascending, each term an
// unfused multiply (the float32 conversion forbids an FMA) followed by an add.
func tripleLoopTransB(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[i*k+p] * b[j*k+p])
			}
			out[i*n+j] = s
		}
	}
	return out
}

// transBTestData fills a slice with unit normals. With special set, one
// element in eight is instead a value that cannot poison a sum but exposes a
// skipped or reordered operation (signed zeros, denormals), and about one in
// 4k is one that can (infinities, two NaNs of different payload, the largest
// finite) — rare enough that a k-term reduction stays finite more often than
// not, so finite sums, ±Inf and NaN all occur among the outputs.
func transBTestData(rng *rand.Rand, n, k int, special bool) []float32 {
	mild := []uint32{0x80000000, 0x00000000, 0x00000001, 0x807FFFFF, 0x007FFFFF}
	loud := []uint32{0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F7FFFFF, 0xFF7FFFFF}
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
		if !special {
			continue
		}
		if rng.Intn(8) == 0 {
			out[i] = math.Float32frombits(mild[rng.Intn(len(mild))])
		}
		if rng.Intn(4*k) == 0 {
			out[i] = math.Float32frombits(loud[rng.Intn(len(loud))])
		}
	}
	return out
}

// TestMatMulTransBMatchesTripleLoop compares MatMulTransB bit for bit with
// tripleLoopTransB on every kernel tier and at one, two and four workers, over
// (m, k, n) on both sides of the orientation rule and on its edges: the
// 512x512 weight at the training and evaluation batches and either side of
// the m = 128 crossover, the 64->512 stem either side of m = 28, the weights
// that stay on the default side whatever the batch (64x64, 512->10), k = 1,
// and weights of exactly 8192 and of 8193 values. Operands are clean and
// special-valued. Every NaN is one value, as in internal/nn's conv_bits_test:
// which payload a NaN·NaN product keeps depends on the order an instruction
// was handed its factors, which differs between the two orientations (and
// already differed between the tiers and this loop) and is not arithmetic.
// Compared strictly, 7fc00000 meets ffc00001 on every tier.
func TestMatMulTransBMatchesTripleLoop(t *testing.T) {
	type tcase struct {
		m, k, n   int
		special   bool
		a, b, dst *Tensor
		want      []float32
	}
	var cases []*tcase
	var nans, infs, finite int
	rng := rand.New(rand.NewSource(24))
	for _, d := range [][3]int{
		{16, 512, 512}, {17, 512, 512}, {64, 512, 512}, {128, 512, 512}, {129, 512, 512}, {1, 512, 512},
		{16, 64, 512}, {28, 64, 512}, {29, 64, 512}, {16, 64, 64}, {16, 512, 10},
		{3, 1, 8200}, {16, 1, 10}, {1, 64, 128}, {2, 128, 64}, {1, 3, 2731}, {1, 2731, 3}, {2, 2731, 3}, {1, 8193, 1},
	} {
		for _, special := range []bool{false, true} {
			m, k, n := d[0], d[1], d[2]
			c := &tcase{m: m, k: k, n: n, special: special, dst: New(m, n),
				a: MustFromSlice(transBTestData(rng, m*k, k, special), m, k),
				b: MustFromSlice(transBTestData(rng, n*k, k, special), n, k)}
			c.want = tripleLoopTransB(c.a.data, c.b.data, m, k, n)
			for _, v := range c.want {
				switch {
				case v != v:
					nans++
				case math.IsInf(float64(v), 0):
					infs++
				default:
					finite++
				}
			}
			cases = append(cases, c)
		}
	}
	t.Logf("reference outputs: %d NaN, %d Inf, %d finite", nans, infs, finite)
	if nans == 0 || infs == 0 || finite < nans+infs {
		t.Fatalf("reference outputs: %d NaN, %d Inf, %d finite — the special values are not exercising the sums", nans, infs, finite)
	}
	forEachTier(t, func(t *testing.T) {
		for _, procs := range []int{1, 2, 4} {
			withGOMAXPROCS(procs, func() {
				for _, c := range cases {
					c.dst.Fill(float32(math.NaN())) // every element must be written
					if err := MatMulTransB(c.dst, c.a, c.b); err != nil {
						t.Fatal(err)
					}
					for i, g := range c.dst.data {
						w := c.want[i]
						if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
							t.Fatalf("procs=%d (%d, %d, %d) special=%v: dst[%d] = %08x, want %08x",
								procs, c.m, c.k, c.n, c.special, i, math.Float32bits(g), math.Float32bits(w))
						}
					}
				}
			})
		}
	})
}
