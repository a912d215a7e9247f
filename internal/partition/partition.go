// Package partition splits a dataset's sample indices across federated
// clients. It implements the Dirichlet non-IID partitioner used throughout
// the paper (Diri(α), after Hsu et al.) and heterogeneity statistics.
package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ErrPartition reports an invalid partitioning request.
var ErrPartition = errors.New("partition: invalid request")

// maxDirichletRetries bounds the resampling loop that enforces the minimum
// per-client size.
const maxDirichletRetries = 200

// Dirichlet partitions samples across clients with label-distribution skew:
// for each class, client shares are drawn from Dir(alpha). Smaller alpha
// yields stronger heterogeneity. Every client is guaranteed at least minSize
// samples (resampling as needed); minSize <= n/numClients must hold.
func Dirichlet(labels []int, numClients int, alpha float64, minSize int, rng *rand.Rand) ([][]int, error) {
	n := len(labels)
	if n == 0 || numClients <= 0 || numClients > n {
		return nil, fmt.Errorf("%w: dirichlet n=%d clients=%d", ErrPartition, n, numClients)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("%w: alpha %v must be positive", ErrPartition, alpha)
	}
	if minSize < 0 || minSize*numClients > n {
		return nil, fmt.Errorf("%w: minSize %d infeasible for n=%d clients=%d", ErrPartition, minSize, n, numClients)
	}
	numClasses := 0
	for _, c := range labels {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative label", ErrPartition)
		}
		if c+1 > numClasses {
			numClasses = c + 1
		}
	}
	byClass := make([][]int, numClasses)
	for i, c := range labels {
		byClass[c] = append(byClass[c], i)
	}

	for attempt := 0; attempt < maxDirichletRetries; attempt++ {
		out := make([][]int, numClients)
		for _, idxs := range byClass {
			if len(idxs) == 0 {
				continue
			}
			shuffled := append([]int(nil), idxs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			props := dirichletDraw(numClients, alpha, rng)
			// Convert proportions to cumulative cut points.
			cuts := make([]int, numClients)
			var cum float64
			for c := 0; c < numClients; c++ {
				cum += props[c]
				cuts[c] = int(math.Round(cum * float64(len(shuffled))))
			}
			cuts[numClients-1] = len(shuffled)
			lo := 0
			for c := 0; c < numClients; c++ {
				hi := cuts[c]
				if hi < lo {
					hi = lo
				}
				out[c] = append(out[c], shuffled[lo:hi]...)
				lo = hi
			}
		}
		ok := true
		for _, part := range out {
			if len(part) < minSize {
				ok = false
				break
			}
		}
		if ok {
			for _, part := range out {
				sort.Ints(part)
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w: could not satisfy minSize=%d after %d attempts (alpha=%v too skewed for %d clients)",
		ErrPartition, minSize, maxDirichletRetries, alpha, numClients)
}

// dirichletDraw samples a point from Dir(alpha, ..., alpha) over k outcomes
// using normalized Gamma(alpha, 1) draws.
func dirichletDraw(k int, alpha float64, rng *rand.Rand) []float64 {
	out := make([]float64, k)
	var sum float64
	for i := range out {
		g := GammaSample(alpha, rng)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Extremely small alpha can underflow every draw; fall back to a
		// one-hot split, which is the alpha→0 limit.
		out[rng.Intn(k)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// GammaSample draws from Gamma(shape, 1) with the Marsaglia–Tsang method;
// shapes below 1 use the boosting identity Gamma(a) = Gamma(a+1) · U^(1/a).
// It is the one Gamma draw of the repository: the Dirichlet splits here and
// the virtual fleet's per-client class mixes both call it. Every product that
// feeds an addition or a subtraction is an explicit conversion, so that no
// target fuses it into one rounding and the draws do not depend on the host.
func GammaSample(shape float64, rng *rand.Rand) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return GammaSample(shape+1, rng) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// Stats summarizes the heterogeneity of a partition.
type Stats struct {
	// Sizes is the per-client sample count.
	Sizes []int
	// MaxClassShare is, per client, the share of its most frequent class;
	// 1.0 means the client holds a single class.
	MaxClassShare []float64
	// MeanMaxClassShare averages MaxClassShare over clients, a scalar
	// heterogeneity measure (1/numClasses for IID, →1 under strong skew).
	MeanMaxClassShare float64
}

// ComputeStats summarizes parts against the full label slice.
func ComputeStats(labels []int, parts [][]int, numClasses int) Stats {
	st := Stats{
		Sizes:         make([]int, len(parts)),
		MaxClassShare: make([]float64, len(parts)),
	}
	var total float64
	for i, part := range parts {
		st.Sizes[i] = len(part)
		hist := make([]int, numClasses)
		for _, idx := range part {
			hist[labels[idx]]++
		}
		best := 0
		for _, c := range hist {
			if c > best {
				best = c
			}
		}
		if len(part) > 0 {
			st.MaxClassShare[i] = float64(best) / float64(len(part))
		}
		total += st.MaxClassShare[i]
	}
	if len(parts) > 0 {
		st.MeanMaxClassShare = total / float64(len(parts))
	}
	return st
}
