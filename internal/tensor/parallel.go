package tensor

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The kernel worker pool: long-lived goroutines that execute row-range
// slices of the matmul kernels (and, via ParallelFor, other row-partitioned
// hot loops such as conv's im2col). Four properties matter for the
// training hot path:
//
//   - Steady-state dispatch is allocation-free: tasks are plain values on a
//     buffered channel and completion WaitGroups come from a free list that,
//     unlike a sync.Pool, a collection cannot empty.
//   - The pool never deadlocks and callers never idle: a caller runs its
//     first chunk inline, enqueues the rest (running them inline itself when
//     the queue is full), then helps drain the queue until its own
//     WaitGroup clears.
//   - One level of parallelism: a goroutine that owns a core for a whole
//     unit of outer work (the simulator's per-client training workers)
//     marks its lane occupied with Occupy and frees it with Release. A
//     dispatch fans out only across the lanes nobody occupies, the caller's
//     own counted once, and runs inline when there are none, so concurrent
//     client replicas each keep a core instead of queueing and
//     help-draining each other's small chunks. The last client still
//     training once the others have exited gets the freed lanes back.
//   - Parallelism follows runtime.GOMAXPROCS(0) at every dispatch. Workers
//     are started lazily up to the current target (they never exit; idle
//     workers just block on the queue), so raising GOMAXPROCS mid-process —
//     as the multicore benchmarks do — recruits more workers instead of
//     being pinned to the value seen at first use. FEDFTEDS_KERNEL_THREADS
//     overrides the target explicitly; it is read once, at the first
//     parallel dispatch, and latched for the life of the process. The
//     occupied-lane rule applies beneath it.
//
// Row partitioning never changes a per-element accumulation order and
// ParallelFor's chunks write disjoint ranges, so the lane count a dispatch
// sees changes its speed, never its bits.
//
// Work is split into roughly gemmChunksPerWorker chunks per worker (not one)
// so an OS-preempted worker stalls one small chunk, not 1/Wth of the matmul.

// gemmTask is one unit of pool work: a row-range accumulate through the
// active dispatch tier (fn == nil), or an arbitrary row-range callback.
type gemmTask struct {
	// Accumulate form: dst/a are pre-offset to the task's first row.
	dst, a, b []float32
	rows      int
	n         int
	dstStride int
	k         int
	// Callback form (ParallelFor).
	fn     func(lo, hi int)
	lo, hi int

	wg *sync.WaitGroup
}

func (t *gemmTask) run() {
	if t.fn != nil {
		t.fn(t.lo, t.hi)
		return
	}
	gemmAccImpl(t.dst, t.a, t.b, t.rows, t.n, t.dstStride, t.k)
}

const (
	// gemmChunksPerWorker over-decomposes row ranges for load balance.
	gemmChunksPerWorker = 4
	// minChunkDstElems keeps a chunk's output large enough to amortize
	// dispatch (one channel send + one WaitGroup count) over real work.
	minChunkDstElems = 1024
	// taskQueueLen decouples queue capacity from worker count; a full
	// queue degrades to inline execution by the caller, never blocks.
	taskQueueLen = 256
)

var (
	taskCh         = make(chan gemmTask, taskQueueLen)
	workersStarted atomic.Int32
	occupied       atomic.Int32 // lanes held by Occupy and not yet Released
	tasksQueued    atomic.Int64 // tasks dispatch handed to the pool (tests read it)

	threadsOnce sync.Once
	threadsEnv  int // 0 = follow GOMAXPROCS
)

// wgFree holds the completion WaitGroups of finished fan-outs, so a fan-out
// allocates one only when more fan-outs are in flight than ever before. The
// capacity bounds what is kept, not what runs: fan-outs in flight at once
// number at most the goroutines calling kernels, and a WaitGroup returned to
// a full list is dropped.
var wgFree = make(chan *sync.WaitGroup, taskQueueLen)

func getWaitGroup() *sync.WaitGroup {
	select {
	case wg := <-wgFree:
		return wg
	default:
		return new(sync.WaitGroup)
	}
}

func putWaitGroup(wg *sync.WaitGroup) {
	select {
	case wgFree <- wg:
	default:
	}
}

// scratchPool recycles packing buffers (transposes, B panels).
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

func getScratch(n int) *[]float32 {
	sp := scratchPool.Get().(*[]float32)
	if cap(*sp) < n {
		*sp = make([]float32, n)
	}
	*sp = (*sp)[:n]
	return sp
}

func putScratch(sp *[]float32) { scratchPool.Put(sp) }

// parseKernelThreads validates a FEDFTEDS_KERNEL_THREADS value: a positive
// integer thread count, or empty to follow GOMAXPROCS.
func parseKernelThreads(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("tensor: FEDFTEDS_KERNEL_THREADS=%q: want a positive integer thread count", s)
	}
	return v, nil
}

// Occupy marks n lanes as running outer work — one per goroutine that
// trains a client — until a matching Release. Kernel calls made meanwhile
// fan out only across the lanes left over.
func Occupy(n int) { occupied.Add(int32(n)) }

// Release frees n lanes taken by Occupy.
func Release(n int) { occupied.Add(-int32(n)) }

// Occupied reports how many lanes are held by Occupy right now.
func Occupied() int { return int(occupied.Load()) }

// maxWorkers returns the parallelism target for this dispatch: the latched
// FEDFTEDS_KERNEL_THREADS override when set, else GOMAXPROCS right now, less
// the lanes other goroutines occupy (a caller on an occupied lane counts its
// own lane once), and never under 1.
func maxWorkers() int {
	threadsOnce.Do(func() {
		v, err := parseKernelThreads(os.Getenv("FEDFTEDS_KERNEL_THREADS"))
		if err != nil {
			panic(err) // fail fast: a typoed thread count must not silently serialize
		}
		threadsEnv = v
	})
	target := threadsEnv
	if target == 0 {
		target = runtime.GOMAXPROCS(0)
	}
	if busy := int(occupied.Load()); busy > 0 {
		return max(1, target-busy+1)
	}
	return target
}

// ensureWorkers lazily brings the started-worker count up to want.
func ensureWorkers(want int) {
	for {
		cur := workersStarted.Load()
		if int(cur) >= want {
			return
		}
		if workersStarted.CompareAndSwap(cur, cur+1) {
			go func() {
				for t := range taskCh {
					t.run()
					t.wg.Done()
				}
			}()
		}
	}
}

// dispatch enqueues t for the pool, or runs it inline when the queue is
// full. wg must already count it.
func dispatch(t gemmTask) {
	select {
	case taskCh <- t:
		tasksQueued.Add(1)
	default:
		t.run()
		t.wg.Done()
	}
}

// helpUntilDone drains queued tasks — any caller's — until wg clears.
func helpUntilDone(wg *sync.WaitGroup) {
	for {
		select {
		case t := <-taskCh:
			t.run()
			t.wg.Done()
		default:
			wg.Wait()
			putWaitGroup(wg)
			return
		}
	}
}

// parallelGemmAcc accumulates rows [0, rows) of dst (+= a @ b) across the
// pool: dst row r starts at dst[r*dstStride] and spans n lanes; b rows are
// contiguous with stride n. Row partitioning never changes the per-element
// accumulation order, so results are bit-identical to the serial kernel
// regardless of worker count or chunk shape.
func parallelGemmAcc(dst, a, b []float32, rows, n, dstStride, k int) {
	w := maxWorkers()
	if w <= 1 || rows < 2 {
		gemmAccImpl(dst, a, b, rows, n, dstStride, k)
		return
	}
	chunk := (rows + w*gemmChunksPerWorker - 1) / (w * gemmChunksPerWorker)
	chunk = (chunk + 3) &^ 3 // whole 4-row blocks keep the wide kernels full
	if chunk*n < minChunkDstElems {
		chunk = (minChunkDstElems/n + 4) &^ 3
	}
	if chunk >= rows {
		gemmAccImpl(dst, a, b, rows, n, dstStride, k)
		return
	}
	ensureWorkers(w - 1) // the caller is the w-th lane
	wg := getWaitGroup()
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		dispatch(gemmTask{
			dst: dst[lo*dstStride:], a: a[lo*k:], b: b,
			rows: hi - lo, n: n, dstStride: dstStride, k: k, wg: wg,
		})
	}
	gemmAccImpl(dst, a, b, chunk, n, dstStride, k)
	helpUntilDone(wg)
}

// ParallelFor runs fn over [0, total) split into contiguous [lo, hi)
// chunks of at least minChunk, using the kernel worker pool. fn is called
// concurrently on disjoint ranges and must be safe for that; it must not
// itself dispatch pool work (no nested ParallelFor or large matmuls).
// Callers that need zero steady-state allocations should pass a cached
// closure. Serial execution (one call covering everything) happens when
// the call gets one lane (every other lane occupied, or no parallelism) or
// total is small; either way every index is covered exactly once.
func ParallelFor(total, minChunk int, fn func(lo, hi int)) {
	if total <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	w := maxWorkers()
	chunk := (total + w*gemmChunksPerWorker - 1) / (w * gemmChunksPerWorker)
	if chunk < minChunk {
		chunk = minChunk
	}
	if w <= 1 || chunk >= total {
		fn(0, total)
		return
	}
	ensureWorkers(w - 1)
	wg := getWaitGroup()
	for lo := chunk; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		dispatch(gemmTask{fn: fn, lo: lo, hi: hi, wg: wg})
	}
	fn(0, chunk)
	helpUntilDone(wg)
}
