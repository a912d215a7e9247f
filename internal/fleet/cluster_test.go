package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/tensor"
)

// kmeansReference is the serial k-means kmeans replaced, kept as the oracle:
// one goroutine, a scalar distance per center, centers row-major.
func kmeansReference(sketch []float32, n, dim, k int) []int32 {
	const iters = 8
	if k > n {
		k = n
	}
	centers := make([]float64, k*dim)
	for c := 0; c < k; c++ {
		row := sketch[(c*n/k)*dim : (c*n/k+1)*dim]
		for j, v := range row {
			centers[c*dim+j] = float64(v)
		}
	}
	distSq := func(row []float32, center []float64) float64 {
		var d float64
		for j, v := range row {
			diff := float64(v) - center[j]
			d += float64(diff * diff)
		}
		return d
	}
	assign := make([]int32, n)
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			row := sketch[i*dim : (i+1)*dim]
			best, bestD := 0, distSq(row, centers[:dim])
			for c := 1; c < k; c++ {
				if d := distSq(row, centers[c*dim:(c+1)*dim]); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = int32(best)
		}
		for i := range sums {
			sums[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := int(assign[i])
			counts[c]++
			row := sketch[i*dim : (i+1)*dim]
			for j, v := range row {
				sums[c*dim+j] += float64(v)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue // empty cluster keeps its center
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < dim; j++ {
				centers[c*dim+j] = sums[c*dim+j] * inv
			}
		}
	}
	return assign
}

// kmeansSketch draws n rows of dim values as a fleet's sketches look —
// proportions in [0, 1] — but copied from a handful of prototypes for half
// the rows, so rows tie exactly and evenly spaced initial centers can
// coincide, which empties the later of two equal clusters. With nan set a
// few rows carry a NaN, which makes their cluster's center NaN.
func kmeansSketch(n, dim int, seed int64, nan bool) []float32 {
	rng := rand.New(rand.NewSource(seed))
	protos := make([]float32, 3*dim)
	for i := range protos {
		protos[i] = float32(rng.Float64())
	}
	s := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		row := s[i*dim : (i+1)*dim]
		if rng.Intn(2) == 0 {
			p := rng.Intn(3)
			copy(row, protos[p*dim:(p+1)*dim])
			continue
		}
		for j := range row {
			row[j] = float32(rng.Float64())
		}
	}
	if nan {
		for r := 0; r < 3 && r < n; r++ {
			s[rng.Intn(n)*dim+rng.Intn(dim)] = float32(math.NaN())
		}
	}
	return s
}

// TestKmeansMatchesReference holds kmeans to the serial loop it replaced,
// assignment for assignment, at GOMAXPROCS 1 and 4: k 1-9 (multiples of 4
// and not, and k > n) over 1-12 dimensions on fleets below one assignment
// chunk, and a spread of them on fleets across several chunks, every sketch
// with tied rows and coinciding initial centers (emptied clusters), some
// with NaN rows. It runs on the active kernel tier and, unless
// FEDFTEDS_KERNEL already names one, reruns itself in a child process on
// every other tier this machine offers.
func TestKmeansMatchesReference(t *testing.T) {
	type kcase struct{ n, dim, k int }
	var cases []kcase
	for k := 1; k <= 9; k++ {
		for dim := 1; dim <= 12; dim++ {
			cases = append(cases, kcase{37, dim, k})
		}
		cases = append(cases, kcase{k / 2, 3, k}, kcase{5 * kmeansChunk / 2, 1 + 11*(k%2), k})
	}
	cases = append(cases, kcase{4*kmeansChunk + 3, 11, 8}, kcase{kmeansChunk, 12, 4})
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i, c := range cases {
				if c.n == 0 {
					continue
				}
				sketch := kmeansSketch(c.n, c.dim, int64(i), i%5 == 0)
				got, want := kmeans(sketch, c.n, c.dim, c.k), kmeansReference(sketch, c.n, c.dim, c.k)
				for r := range want {
					if got[r] != want[r] {
						t.Fatalf("n=%d dim=%d k=%d GOMAXPROCS %d kernel %s: row %d in cluster %d, the serial loop says %d",
							c.n, c.dim, c.k, procs, tensor.ActiveKernel(), r, got[r], want[r])
					}
				}
			}
		}()
	}
	if os.Getenv("FEDFTEDS_KERNEL") != "" {
		return
	}
	for _, tier := range tensor.AvailableKernels() {
		if tier == tensor.ActiveKernel() {
			continue
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestKmeansMatchesReference$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "FEDFTEDS_KERNEL="+tier)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestKmeansMatchesReference") {
			t.Fatalf("kernel %s: %v\n%s", tier, err, out)
		}
	}
}

// benchSpec is the ledger's fleet_day population at its default seed: the
// -exp fleetday spec over 100,000 clients.
func benchSpec(tb testing.TB, clusters int) Spec {
	suite, err := data.NewStandardSuite(20250101)
	if err != nil {
		tb.Fatalf("suite: %v", err)
	}
	return Spec{Clients: 100_000, Seed: 20250101 + 2000, Domain: suite.Target10,
		MinSamples: 10, MaxSamples: 30, Alpha: 0.3, Clusters: clusters, PoolSize: 128}
}

// TestClusterHashPinned pins the clustering and fingerprint of fleet_day's
// 100,000-client population to the values the serial k-means produced.
func TestClusterHashPinned(t *testing.T) {
	f, err := New(benchSpec(t, 8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if f.clusterHash != 0x5146e93cc73f01f0 || f.Fingerprint() != "e97429260b8625e6" {
		t.Fatalf("cluster hash %#x, fingerprint %s; the serial k-means gave 0x5146e93cc73f01f0 and e97429260b8625e6",
			f.clusterHash, f.Fingerprint())
	}
}

// BenchmarkFleetRegister times registration's two halves on fleet_day's
// population: New without clustering (the descriptor draws), New with the
// spec's 8 clusters, and k-means alone on the registered sketches. Run it
// with -cpu 1,2: both halves run on the kernel worker pool.
func BenchmarkFleetRegister(b *testing.B) {
	for _, k := range []int{0, 8} {
		spec := benchSpec(b, k)
		b.Run(fmt.Sprintf("clusters=%d", k), func(b *testing.B) {
			for range b.N {
				if _, err := New(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	f, err := New(benchSpec(b, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kmeans", func(b *testing.B) {
		for range b.N {
			kmeans(f.sketch, f.spec.Clients, f.dim, 8)
		}
	})
}
