package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Reference kernels: the straightforward triple loops the optimized kernels
// must match bit for bit (same per-element accumulation order).

func refMatMul(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[p*n+j]
			}
			dst.data[i*n+j] = s
		}
	}
}

func refMatMulTransAAdd(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.data[p*m+i] * b.data[p*n+j]
			}
			dst.data[i*n+j] = s
		}
	}
}

func refMatMulTransB(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[j*k+p]
			}
			dst.data[i*n+j] = s
		}
	}
}

func randT(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.FillNormal(rng, 0, 1)
	return t
}

// forEachTier runs f once per dispatch tier available on this machine and
// build (always at least portable; on amd64 also sse, and avx2/avx512 when
// the CPU has them), restoring the configured tier afterwards. Swapping is
// safe here because no matmul is in flight between operations and pool
// workers synchronize on the task channel.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	orig := activeTier
	defer setTier(orig)
	for _, tier := range detectedFeatures.tiers() {
		setTier(tier)
		t.Run("tier="+tier.String(), f)
	}
	setTier(orig)
}

// dims cover 4-row block boundaries, every lane-tail combination below and
// across each tier's chunk widths (32/16/8/4/1), and degenerate single
// row/column cases, plus sizes past the parallel threshold.
var equivDims = [][3]int{
	{1, 1, 1}, {1, 5, 3}, {4, 4, 4}, {5, 7, 9}, {8, 16, 12},
	{3, 2, 31}, {17, 13, 6}, {32, 64, 1}, {1, 1, 128}, {6, 3, 5},
	{7, 9, 23}, {9, 5, 37}, {64, 64, 10}, {70, 65, 33}, {128, 96, 17},
	{66, 40, 130}, {5, 7, 100},
}

func TestMatMulBitIdenticalToReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, d := range equivDims {
			m, k, n := d[0], d[1], d[2]
			a, b := randT(rng, m, k), randT(rng, k, n)
			got, want := New(m, n), New(m, n)
			if err := MatMul(got, a, b); err != nil {
				t.Fatal(err)
			}
			refMatMul(want, a, b)
			if !got.Equal(want) {
				t.Fatalf("MatMul %dx%dx%d differs from reference", m, k, n)
			}
		}
	})
}

func TestMatMulTransABitIdenticalToReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for _, d := range equivDims {
			m, k, n := d[0], d[1], d[2]
			a, b := randT(rng, k, m), randT(rng, k, n)
			got, want := New(m, n), New(m, n)
			if err := MatMulTransAAdd(got, a, b); err != nil {
				t.Fatal(err)
			}
			refMatMulTransAAdd(want, a, b)
			if !got.Equal(want) {
				t.Fatalf("MatMulTransA %dx%dx%d differs from reference", m, k, n)
			}
		}
	})
}

// TestMatMulAddAddsProductToDst holds the accumulating forms to the triple
// loop's sum, begun at +0, added to dst's own value: exactly what a product
// into a workspace followed by Tensor.Add gives, on the flat paths and on the
// cache-blocked panel path (forced on small shapes).
func TestMatMulAddAddsProductToDst(t *testing.T) {
	origBlock, origPanel := gemmBlockBytes, gemmPanelBytes
	defer func() { gemmBlockBytes, gemmPanelBytes = origBlock, origPanel }()
	forEachTier(t, func(t *testing.T) {
		for _, blocked := range []bool{false, true} {
			gemmBlockBytes, gemmPanelBytes = origBlock, origPanel
			if blocked {
				gemmBlockBytes, gemmPanelBytes = 1<<10, 2400
			}
			rng := rand.New(rand.NewSource(14))
			for _, d := range equivDims {
				m, k, n := d[0], d[1], d[2]
				a, at, b := randT(rng, m, k), New(k, m), randT(rng, k, n)
				PackTranspose(at.data, a.data, m, k)
				start := randT(rng, m, n)
				want := New(m, n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						var s float32
						for p := 0; p < k; p++ {
							s += a.data[i*k+p] * b.data[p*n+j]
						}
						want.data[i*n+j] = start.data[i*n+j] + s
					}
				}
				for name, mul := range map[string]func(dst *Tensor) error{
					"MatMulAdd":       func(dst *Tensor) error { return MatMulAdd(dst, a, b) },
					"MatMulTransAAdd": func(dst *Tensor) error { return MatMulTransAAdd(dst, at, b) },
				} {
					got := start.Clone()
					if err := mul(got); err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s %dx%dx%d (blocked %v) differs from dst + reference product", name, m, k, n, blocked)
					}
				}
			}
		}
	})
}

func TestMatMulTransBBitIdenticalToReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, d := range equivDims {
			m, k, n := d[0], d[1], d[2]
			a, b := randT(rng, m, k), randT(rng, n, k)
			got, want := New(m, n), New(m, n)
			if err := MatMulTransB(got, a, b); err != nil {
				t.Fatal(err)
			}
			refMatMulTransB(want, a, b)
			if !got.Equal(want) {
				t.Fatalf("MatMulTransB %dx%dx%d differs from reference", m, k, n)
			}
		}
	})
}

// TestGemmAccMatchesPortableEveryTier drives each tier's row-block
// accumulator directly (including the strided-dst form the blocked panel
// path uses) against the portable kernel, on every row-remainder and
// lane-tail combination.
func TestGemmAccMatchesPortableEveryTier(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tier := range detectedFeatures.tiers() {
		acc := gemmAccForTier(tier)
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
			for _, k := range []int{1, 2, 3, 7, 32} {
				for n := 1; n <= 70; n += 3 {
					stride := n + 5 // strided dst: panel writes into a wider matrix
					a := randT(rng, rows, k)
					got := randT(rng, rows, stride)
					want := got.Clone()
					b := randT(rng, k, n)
					acc(got.data, a.data, b.data, rows, n, stride, k)
					gemmAccGo(want.data, a.data, b.data, rows, n, stride, k)
					if !got.Equal(want) {
						t.Fatalf("tier %v rows=%d k=%d n=%d differs from portable kernel", tier, rows, k, n)
					}
				}
			}
		}
	}
}

// TestBlockedGemmBitIdentical forces the cache-blocked panel path on small
// shapes (shrinking the thresholds) and checks it against the reference on
// every tier, including a non-multiple-of-panel tail.
func TestBlockedGemmBitIdentical(t *testing.T) {
	origBlock, origPanel := gemmBlockBytes, gemmPanelBytes
	gemmBlockBytes, gemmPanelBytes = 1<<10, 2400 // B > 1KiB blocks; panels near the 64-col floor
	defer func() { gemmBlockBytes, gemmPanelBytes = origBlock, origPanel }()

	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, d := range [][3]int{{5, 9, 70}, {33, 20, 150}, {64, 64, 192}, {3, 128, 65}} {
			m, k, n := d[0], d[1], d[2]
			if 4*k*n <= gemmBlockBytes || n <= gemmPanelCols(n, k) {
				t.Fatalf("dims %v do not exercise the blocked path", d)
			}
			a, b := randT(rng, m, k), randT(rng, k, n)
			got, want := New(m, n), New(m, n)
			if err := MatMul(got, a, b); err != nil {
				t.Fatal(err)
			}
			refMatMul(want, a, b)
			if !got.Equal(want) {
				t.Fatalf("blocked MatMul %dx%dx%d differs from reference", m, k, n)
			}
		}
	})
}

// withGOMAXPROCS runs f under a temporary GOMAXPROCS so the worker pool
// engages (and recruits workers) even on single-core machines.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Well past matmulParallelThreshold so the worker pool engages; forced
	// GOMAXPROCS so parallel dispatch happens even on a 1-core machine.
	rng := rand.New(rand.NewSource(14))
	a, b := randT(rng, 200, 150), randT(rng, 150, 180)
	par, ser := New(200, 180), New(200, 180)
	withGOMAXPROCS(4, func() {
		if err := MatMul(par, a, b); err != nil {
			t.Fatal(err)
		}
	})
	refMatMul(ser, a, b)
	if !par.Equal(ser) {
		t.Fatal("parallel MatMul differs from serial reference")
	}
}

// Goroutines that pack at once share the packing scratch: each call must
// still get a buffer no other call holds. Eight callers run both
// orientations of MatMulTransB, the second fanning out, and MatMulTransAAdd
// on shapes of their own, against the references.
func TestMatMulParallelCallersShareScratch(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(30 + g)))
				// The transposed-result orientation, then a fan-out.
				for _, shape := range [][3]int{{8 + g, 128 + 8*g, 128}, {80 + g, 64, 64}} {
					a, b := randT(rng, shape[0], shape[1]), randT(rng, shape[2], shape[1])
					got, want := New(shape[0], shape[2]), New(shape[0], shape[2])
					ga, wa := New(shape[1], shape[2]), New(shape[1], shape[2])
					refMatMulTransB(want, a, b)
					for range 20 {
						if err := MatMulTransB(got, a, b); err != nil {
							t.Error(err)
							return
						}
					}
					if !got.Equal(want) {
						t.Errorf("caller %d %v: MatMulTransB differs from the reference", g, shape)
					}
					if err := MatMulTransAAdd(ga, a, got); err != nil {
						t.Error(err)
						return
					}
					refMatMulTransAAdd(wa, a, want)
					if !ga.Equal(wa) {
						t.Errorf("caller %d %v: MatMulTransAAdd differs from the reference", g, shape)
					}
				}
			}()
		}
		wg.Wait()
	})
}

func TestEnsureReusesStorage(t *testing.T) {
	t1 := New(8, 4)
	t1.Fill(3)
	t2 := Ensure(t1, 4, 4)
	if t2 != t1 {
		t.Fatal("Ensure did not reuse sufficient storage")
	}
	if t2.Dim(0) != 4 || t2.Dim(1) != 4 || t2.Len() != 16 {
		t.Fatalf("Ensure shape %v len %d", t2.Shape(), t2.Len())
	}
	// Growing past capacity allocates fresh storage.
	t3 := Ensure(t2, 16, 16)
	if t3 == t2 {
		t.Fatal("Ensure reused insufficient storage")
	}
	if got := Ensure(nil, 2, 3); got.Len() != 6 {
		t.Fatalf("Ensure(nil) len %d", got.Len())
	}
	// Rank changes rewrite the shape correctly.
	t4 := Ensure(New(2, 3, 4), 6, 4)
	if t4.Rank() != 2 || t4.Dim(0) != 6 || t4.Dim(1) != 4 {
		t.Fatalf("Ensure rank change shape %v", t4.Shape())
	}
}

// BenchmarkGemmRowsParallel measures worker-pool scaling of a 256³ matmul
// at 1/2/4/8 cores (GOMAXPROCS; on machines with fewer physical cores the
// extra lanes oversubscribe and the curve flattens, so a recorded curve must
// name the core count it was measured on). The performance ledger has no
// multicore row yet.
func BenchmarkGemmRowsParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	a, bb := randT(rng, 256, 256), randT(rng, 256, 256)
	dst := New(256, 256)
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			withGOMAXPROCS(cores, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := MatMul(dst, a, bb); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
