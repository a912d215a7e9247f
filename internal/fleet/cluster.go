package fleet

import (
	"math"
	"runtime"

	"fedfteds/internal/tensor"
)

const (
	// kmeansChunk is the fewest sketch rows one pool task assigns, so small
	// fleets cluster inline.
	kmeansChunk = 1024
	// kmeansBatch is how many rows one distance-kernel call covers: their
	// distances stay in a task's small buffer until the rows are assigned.
	kmeansBatch = 128
)

// kmeans clusters n sketch rows of the given dimension into k groups with
// plain Lloyd iterations, fully deterministically: centers initialize from
// evenly spaced clients ((i·n)/k), assignment ties break toward the lower
// center index, an emptied cluster keeps its previous center, and the
// iteration count is fixed. The sketches are cheap label-distribution
// summaries, so a handful of iterations is plenty — the goal is stable
// similarity grouping for stratified cohort sampling, not optimal clustering.
//
// Both passes of an iteration run on the kernel worker pool and its lane
// kernels without moving a bit. Assignment splits the rows: a row's
// distances come from tensor.CenterDistances (every center a lane, its sum
// over the dimensions in order) and its center from tensor.NearestLanes
// (the serial loop's rule), so they depend on the row and the centers alone.
// The center update splits the dimensions: each task sums its own dimensions
// over every client in ascending order (tensor.SumRowsByGroup), exactly as
// the serial loop did. Neither the split nor the kernel tier can change a
// center, the assignment or the fingerprint that hashes it.
func kmeans(sketch []float32, n, dim, k int) []int32 {
	const iters = 8
	if k > n {
		k = n
	}
	// ct holds the centers transposed, dimension j of center c at
	// ct[j*kp+c], with lanes padded to a multiple of 4 for the kernel.
	kp := (k + 3) &^ 3
	ct := make([]float64, dim*kp)
	for i := range ct {
		ct[i] = math.NaN() // padding lanes: NaN distances never win
	}
	for c := 0; c < k; c++ {
		row := sketch[(c*n/k)*dim : (c*n/k+1)*dim]
		for j, v := range row {
			ct[j*kp+c] = float64(v)
		}
	}
	assign := make([]int32, n)
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	assignRows := func(lo, hi int) {
		// Up to 8 centers the distances stay on the task's stack, so the
		// tasks of eight iterations leave no garbage behind.
		var buf [kmeansBatch * 8]float64
		dist := buf[:]
		if kp > 8 {
			dist = make([]float64, kmeansBatch*kp)
		}
		for b := lo; b < hi; b += kmeansBatch {
			e := min(b+kmeansBatch, hi)
			tensor.CenterDistances(dist, sketch[b*dim:e*dim], ct, dim)
			tensor.NearestLanes(assign[b:e], dist[:(e-b)*kp])
		}
	}
	sumDims := func(lo, hi int) {
		w := hi - lo
		local := make([]float64, k*w)
		tensor.SumRowsByGroup(local, sketch[lo:], assign, w, dim)
		for c := 0; c < k; c++ {
			copy(sums[c*dim+lo:c*dim+hi], local[c*w:c*w+w])
		}
	}
	procs := runtime.GOMAXPROCS(0)
	for it := 0; it < iters; it++ {
		tensor.ParallelFor(n, kmeansChunk, assignRows)
		// One task per worker: each pass reads every row's assignment.
		tensor.ParallelFor(dim, (dim+procs-1)/procs, sumDims)
		for c := range counts {
			counts[c] = 0
		}
		for _, c := range assign {
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue // empty cluster keeps its center
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < dim; j++ {
				ct[j*kp+c] = sums[c*dim+j] * inv
			}
		}
	}
	return assign
}
