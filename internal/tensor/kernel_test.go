package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTiersOrderedBestFirst(t *testing.T) {
	cases := []struct {
		f    cpuFeatures
		want []KernelTier
	}{
		{cpuFeatures{}, []KernelTier{TierPortable}},
		{cpuFeatures{sse: true}, []KernelTier{TierSSE, TierPortable}},
		{cpuFeatures{sse: true, avx2: true}, []KernelTier{TierAVX2, TierSSE, TierPortable}},
		{cpuFeatures{sse: true, avx2: true, avx512: true},
			[]KernelTier{TierAVX512, TierAVX2, TierSSE, TierPortable}},
	}
	for _, c := range cases {
		got := c.f.tiers()
		if len(got) != len(c.want) {
			t.Fatalf("tiers(%+v) = %v, want %v", c.f, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("tiers(%+v) = %v, want %v", c.f, got, c.want)
			}
		}
	}
}

func TestChooseTier(t *testing.T) {
	full := cpuFeatures{sse: true, avx2: true, avx512: true}
	avx2Only := cpuFeatures{sse: true, avx2: true}
	sseOnly := cpuFeatures{sse: true}
	none := cpuFeatures{}

	ok := []struct {
		f    cpuFeatures
		env  string
		want KernelTier
	}{
		{full, "", TierAVX512},
		{full, "auto", TierAVX512},
		{full, " AVX2 ", TierAVX2}, // case/space insensitive
		{full, "sse", TierSSE},
		{full, "portable", TierPortable},
		{full, "go", TierPortable},
		{avx2Only, "", TierAVX2},
		{avx2Only, "avx2", TierAVX2},
		{sseOnly, "", TierSSE},
		{none, "", TierPortable}, // noasm / non-amd64 build
		{none, "portable", TierPortable},
	}
	for _, c := range ok {
		got, err := chooseTier(c.f, c.env)
		if err != nil || got != c.want {
			t.Fatalf("chooseTier(%+v, %q) = %v, %v; want %v", c.f, c.env, got, err, c.want)
		}
	}

	bad := []struct {
		f   cpuFeatures
		env string
	}{
		{avx2Only, "avx512"}, // CPU lacks the tier
		{sseOnly, "avx2"},
		{none, "sse"}, // forced SSE on a noasm build must fail, not downgrade
		{full, "avx-512"},
		{full, "fast"},
	}
	for _, c := range bad {
		if _, err := chooseTier(c.f, c.env); err == nil {
			t.Fatalf("chooseTier(%+v, %q) should error", c.f, c.env)
		}
	}
}

func TestActiveKernelListed(t *testing.T) {
	avail := AvailableKernels()
	if len(avail) == 0 || avail[len(avail)-1] != "portable" {
		t.Fatalf("AvailableKernels() = %v: portable must always be last", avail)
	}
	active := ActiveKernel()
	for _, k := range avail {
		if k == active {
			return
		}
	}
	t.Fatalf("active kernel %q not in available set %v", active, avail)
}

func TestParseKernelThreads(t *testing.T) {
	for s, want := range map[string]int{"": 0, "1": 1, "4": 4, "64": 64} {
		got, err := parseKernelThreads(s)
		if err != nil || got != want {
			t.Fatalf("parseKernelThreads(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"0", "-2", "two", "4.5", " 4"} {
		if _, err := parseKernelThreads(s); err == nil {
			t.Fatalf("parseKernelThreads(%q) should error", s)
		}
	}
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, cores := range []int{1, 4} {
		withGOMAXPROCS(cores, func() {
			for _, total := range []int{0, 1, 7, 100, 1023} {
				hits := make([]int32, total)
				var mu sync.Mutex
				ranges := 0
				ParallelFor(total, 8, func(lo, hi int) {
					mu.Lock()
					ranges++
					mu.Unlock()
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("cores=%d total=%d: index %d covered %d times", cores, total, i, h)
					}
				}
				if total > 0 && ranges == 0 {
					t.Fatalf("cores=%d total=%d: fn never called", cores, total)
				}
			}
		})
	}
}

func TestParallelForRespectsMinChunk(t *testing.T) {
	withGOMAXPROCS(8, func() {
		var mu sync.Mutex
		min := 1 << 30
		ParallelFor(100, 40, func(lo, hi int) {
			mu.Lock()
			if hi-lo < min {
				min = hi - lo
			}
			mu.Unlock()
		})
		// The final chunk may be a remainder, but no chunk may be smaller
		// than both minChunk and the remainder (100 = 2×40 + 20).
		if min < 20 {
			t.Fatalf("smallest chunk %d; minChunk 40 over total 100 allows no chunk under 20", min)
		}
	})
}

// A caller on an occupied lane counts its own lane once: with four lanes
// and k occupied, a kernel call gets 5 − k of them, and never fewer than one.
func TestOccupiedLanesLeaveTheRest(t *testing.T) {
	withGOMAXPROCS(4, func() {
		if maxWorkers() != 4 {
			t.Skip("FEDFTEDS_KERNEL_THREADS overrides the four-lane target")
		}
		for _, c := range []struct{ busy, want int }{{0, 4}, {1, 4}, {2, 3}, {3, 2}, {4, 1}, {6, 1}} {
			Occupy(c.busy)
			got := maxWorkers()
			Release(c.busy)
			if got != c.want {
				t.Errorf("%d of 4 lanes occupied: maxWorkers %d, want %d", c.busy, got, c.want)
			}
		}
		if Occupied() != 0 {
			t.Fatalf("%d lanes still occupied after matching releases", Occupied())
		}
	})
}

// poolRun is what one MatMul and one ParallelFor did: the tasks they handed
// the pool, the ranges ParallelFor's callback saw, and whether the product
// equals the reference bit for bit.
type poolRun struct {
	queued  int64
	ranges  int
	matches bool
}

func runOnPool(a, b, want *Tensor) poolRun {
	before := tasksQueued.Load()
	got := New(a.Dim(0), b.Dim(1))
	if err := MatMul(got, a, b); err != nil {
		panic(err)
	}
	var mu sync.Mutex
	ranges := 0
	ParallelFor(1000, 1, func(lo, hi int) {
		mu.Lock()
		ranges++
		mu.Unlock()
	})
	return poolRun{queued: tasksQueued.Load() - before, ranges: ranges, matches: got.Equal(want)}
}

// With every lane occupied a kernel call past the parallel threshold hands
// the pool nothing and runs whole on its caller; once the lanes are released
// the fan-out returns. The bits are the reference's either way.
func TestOccupiedLanesRunKernelsInline(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b := randT(rng, 200, 150), randT(rng, 150, 180)
	want := New(200, 180)
	refMatMul(want, a, b)
	withGOMAXPROCS(4, func() {
		lanes := maxWorkers()
		if lanes < 2 {
			t.Skip("FEDFTEDS_KERNEL_THREADS caps the pool at one lane")
		}
		Occupy(lanes)
		busy := runOnPool(a, b, want)
		Release(lanes)
		idle := runOnPool(a, b, want)
		if busy.queued != 0 || busy.ranges != 1 {
			t.Errorf("all lanes occupied: %d tasks queued, ParallelFor made %d ranges; want 0 and 1", busy.queued, busy.ranges)
		}
		if idle.queued == 0 || idle.ranges < 2 {
			t.Errorf("lanes released: %d tasks queued, ParallelFor made %d ranges; want a fan-out", idle.queued, idle.ranges)
		}
		if !busy.matches || !idle.matches {
			t.Errorf("MatMul differs from the reference (occupied: %v, released: %v)", !busy.matches, !idle.matches)
		}
	})
}

// A fan-out right after two collections allocates nothing: the completion
// WaitGroups live on a free list that a collection cannot empty, so the
// allocations of a round do not depend on when the collector ran. The count
// is testing.AllocsPerRun's, the mallocs of the runs over their number,
// taken at two lanes: AllocsPerRun itself runs at GOMAXPROCS 1, where a call
// never fans out, and switching back inside a run drops the runtime's
// per-lane caches and allocates on its own.
func TestFanOutAfterGCAllocatesNothing(t *testing.T) {
	withGOMAXPROCS(2, func() {
		if maxWorkers() < 2 {
			t.Skip("FEDFTEDS_KERNEL_THREADS caps the pool at one lane")
		}
		const rows, n, k, runs = 64, 64, 64, 20
		dst, a, b := make([]float32, rows*n), make([]float32, rows*k), make([]float32, k*n)
		fn := func(lo, hi int) {}
		// MatMulAdd fans out over a and b where they lie. MatMulTransB is
		// not here: its packing buffer comes from a sync.Pool, which a
		// collection empties (EXPERIMENTS.md, "Rank-4 BatchNorm on lane
		// kernels", has the free lists tried in its place).
		td, ta, tb := New(rows, n), New(rows, k), New(k, n)
		for _, c := range []struct {
			name string
			call func()
		}{
			{"ParallelFor", func() { ParallelFor(rows, 1, fn) }},
			{"parallelGemmAcc", func() { parallelGemmAcc(dst, a, b, rows, n, n, k) }},
			{"MatMulAdd", func() { must(MatMulAdd(td, ta, tb)) }},
		} {
			c.call() // start the workers
			queued := tasksQueued.Load()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				runtime.GC()
				runtime.GC()
				c.call()
			}
			runtime.ReadMemStats(&after)
			if tasksQueued.Load() == queued {
				t.Fatalf("%s handed the pool no task", c.name)
			}
			if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
				t.Errorf("%s after two collections: %d allocations per call, want 0", c.name, allocs)
			}
		}
	})
}
