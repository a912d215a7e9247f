// Package selection implements the client-side data-selection strategies:
// the paper's entropy-based data selection (EDS) with hardened softmax,
// random data selection (RDS), the use-everything baseline (ALL), and two
// classical active-learning acquisition functions (margin and least
// confidence) used as ablations. A batch-level entropy variant (after
// FedAvg-BE) is included to support the paper's sample-level-vs-batch-level
// argument.
package selection

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// ErrSelection reports an invalid selection request.
var ErrSelection = errors.New("selection: invalid request")

// scoreBatchSize is the forward-pass batch size used when scoring local data.
const scoreBatchSize = 64

// Selector picks the subset of a client's local data used for this round's
// update. Implementations must be deterministic given the model, dataset and
// rng.
//
// ds is the input of m's first live group: raw samples under full training,
// frozen-prefix features under partial training (m is then the model entered
// at that group; see DESIGN.md, "What a client round computes").
// m.Forward on rows of ds.X is always valid; ds.Y and the indices are the
// client's.
type Selector interface {
	// Name returns a short identifier used in reports ("eds", "rds", ...).
	Name() string
	// Select returns the chosen sample indices. fraction is the target share
	// of the local dataset in (0, 1]; implementations select
	// ceil(fraction·N) samples (at least one).
	Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error)
	// ScoringPasses reports how many forward passes over the full local
	// dataset the selector costs; the device-time model charges for them.
	ScoringPasses() int
}

// UtilityScorer is an optional Selector extension: selectors that already
// run a scoring pass can report a client-level utility — the mean score over
// the full local dataset — from the same pass, at no extra forward cost.
// The server-side cohort scheduler (internal/sched) consumes it as the
// client's exploitation signal.
type UtilityScorer interface {
	// SelectWithUtility behaves exactly like Select and additionally returns
	// the mean per-sample score over the whole local dataset.
	SelectWithUtility(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) (idx []int, utility float64, err error)
}

// targetCount converts a fraction into a sample count.
func targetCount(n int, fraction float64) (int, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("%w: fraction %v outside (0,1]", ErrSelection, fraction)
	}
	k := int(math.Ceil(fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k, nil
}

// All selects every local sample (the FedFT-ALL baseline).
type All struct{}

var _ Selector = All{}

// Name implements Selector.
func (All) Name() string { return "all" }

// ScoringPasses implements Selector.
func (All) ScoringPasses() int { return 0 }

// Select implements Selector. The fraction is ignored; all indices return.
func (All) Select(_ *models.Model, ds *data.Dataset, _ float64, _ *rand.Rand) ([]int, error) {
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx, nil
}

// Random selects a uniform random subset each round (RDS baselines).
type Random struct{}

var _ Selector = Random{}

// Name implements Selector.
func (Random) Name() string { return "rds" }

// ScoringPasses implements Selector.
func (Random) ScoringPasses() int { return 0 }

// Select implements Selector.
func (Random) Select(_ *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
	k, err := targetCount(ds.Len(), fraction)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(ds.Len())
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out, nil
}

// Entropy is the paper's entropy-based data selection: one forward pass over
// the local data, per-sample Shannon entropy of the hardened softmax
// (temperature ρ < 1), and the top-fraction most uncertain samples win.
type Entropy struct {
	// Temperature is the softmax temperature ρ (paper default 0.1). Values
	// below 1 harden the distribution so that confidently-classified samples
	// drop out of the selection; values above 1 soften it (and, per the
	// paper's ablation, hurt).
	Temperature float64
}

var _ Selector = Entropy{}

// Name implements Selector.
func (Entropy) Name() string { return "eds" }

// ScoringPasses implements Selector.
func (Entropy) ScoringPasses() int { return 1 }

// Select implements Selector.
func (e Entropy) Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
	idx, _, err := e.SelectWithUtility(m, ds, fraction, rng)
	return idx, err
}

var _ UtilityScorer = Entropy{}

// SelectWithUtility implements UtilityScorer: the utility is the mean
// hardened-softmax entropy over the full local dataset, computed from the
// selection scoring pass it shares with Select.
func (e Entropy) SelectWithUtility(m *models.Model, ds *data.Dataset, fraction float64, _ *rand.Rand) ([]int, float64, error) {
	if e.Temperature <= 0 {
		return nil, 0, fmt.Errorf("%w: temperature %v must be positive", ErrSelection, e.Temperature)
	}
	k, err := targetCount(ds.Len(), fraction)
	if err != nil {
		return nil, 0, err
	}
	scores, err := SampleEntropies(m, ds, e.Temperature)
	if err != nil {
		return nil, 0, err
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return topKByScore(scores, k), sum / float64(len(scores)), nil
}

// SampleEntropies runs the scoring forward pass and returns the hardened-
// softmax Shannon entropy of every sample (paper Eqs. 2, 3, 6).
func SampleEntropies(m *models.Model, ds *data.Dataset, temperature float64) ([]float64, error) {
	if temperature <= 0 {
		return nil, fmt.Errorf("%w: temperature %v must be positive", ErrSelection, temperature)
	}
	out := make([]float64, ds.Len())
	batches, err := ds.Batches(scoreBatchSize, nil)
	if err != nil {
		return nil, err
	}
	var ws tensor.SoftmaxScratch
	off := 0
	for _, b := range batches {
		logits := m.Forward(b.X, false)
		n := logits.Dim(0)
		tensor.SoftmaxEntropyRows(&ws, out[off:off+n], logits.Data(), logits.Dim(1), temperature)
		off += n
	}
	return out[:off], nil
}

// Margin selects samples with the smallest top-2 probability margin — the
// classical margin acquisition (Scheffer et al.), included as an ablation.
type Margin struct{}

var _ Selector = Margin{}

// Name implements Selector.
func (Margin) Name() string { return "margin" }

// ScoringPasses implements Selector.
func (Margin) ScoringPasses() int { return 1 }

// Select implements Selector.
func (Margin) Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
	k, err := targetCount(ds.Len(), fraction)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, 0, ds.Len())
	batches, err := ds.Batches(scoreBatchSize, nil)
	if err != nil {
		return nil, err
	}
	var ws tensor.SoftmaxScratch
	var probs *tensor.Tensor
	for _, b := range batches {
		logits := m.Forward(b.X, false)
		probs = nn.SoftmaxInto(&ws, probs, logits, 1.0)
		n, c := probs.Dim(0), probs.Dim(1)
		for i := 0; i < n; i++ {
			row := probs.Data()[i*c : (i+1)*c]
			best, second := float32(-1), float32(-1)
			for _, p := range row {
				if p > best {
					second = best
					best = p
				} else if p > second {
					second = p
				}
			}
			// Smaller margin = harder: negate so topK picks smallest margins.
			scores = append(scores, -float64(best-second))
		}
	}
	return topKByScore(scores, k), nil
}

// LeastConfidence selects samples whose top-1 probability is lowest.
type LeastConfidence struct{}

var _ Selector = LeastConfidence{}

// Name implements Selector.
func (LeastConfidence) Name() string { return "leastconf" }

// ScoringPasses implements Selector.
func (LeastConfidence) ScoringPasses() int { return 1 }

// Select implements Selector.
func (LeastConfidence) Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
	k, err := targetCount(ds.Len(), fraction)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, 0, ds.Len())
	batches, err := ds.Batches(scoreBatchSize, nil)
	if err != nil {
		return nil, err
	}
	var ws tensor.SoftmaxScratch
	var probs *tensor.Tensor
	for _, b := range batches {
		logits := m.Forward(b.X, false)
		probs = nn.SoftmaxInto(&ws, probs, logits, 1.0)
		n, c := probs.Dim(0), probs.Dim(1)
		for i := 0; i < n; i++ {
			row := probs.Data()[i*c : (i+1)*c]
			best := float32(-1)
			for _, p := range row {
				if p > best {
					best = p
				}
			}
			scores = append(scores, -float64(best))
		}
	}
	return topKByScore(scores, k), nil
}

// BatchEntropy ranks fixed-size batches by their mean entropy and selects
// whole batches (the FedAvg-BE style the paper argues against: batch-level
// scores mask the utility of individual samples).
type BatchEntropy struct {
	// Temperature is the softmax temperature used for scoring.
	Temperature float64
	// BatchSize is the granularity of selection; default 16.
	BatchSize int
}

var _ Selector = BatchEntropy{}

// Name implements Selector.
func (BatchEntropy) Name() string { return "batch-eds" }

// ScoringPasses implements Selector.
func (BatchEntropy) ScoringPasses() int { return 1 }

// Select implements Selector.
func (b BatchEntropy) Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
	temp := b.Temperature
	if temp <= 0 {
		return nil, fmt.Errorf("%w: temperature %v must be positive", ErrSelection, temp)
	}
	bs := b.BatchSize
	if bs <= 0 {
		bs = 16
	}
	k, err := targetCount(ds.Len(), fraction)
	if err != nil {
		return nil, err
	}
	scores, err := SampleEntropies(m, ds, temp)
	if err != nil {
		return nil, err
	}
	// Group indices into contiguous batches after a deterministic shuffle.
	order := rng.Perm(ds.Len())
	type group struct {
		idxs []int
		mean float64
	}
	var groups []group
	for lo := 0; lo < len(order); lo += bs {
		hi := lo + bs
		if hi > len(order) {
			hi = len(order)
		}
		g := group{idxs: append([]int(nil), order[lo:hi]...)}
		for _, i := range g.idxs {
			g.mean += scores[i]
		}
		g.mean /= float64(len(g.idxs))
		groups = append(groups, g)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].mean > groups[j].mean })
	var out []int
	for _, g := range groups {
		if len(out) >= k {
			break
		}
		out = append(out, g.idxs...)
	}
	if len(out) > k {
		out = out[:k]
	}
	sort.Ints(out)
	return out, nil
}

// topKByScore returns the indices of the k largest scores, ties broken by
// lower index, result sorted ascending.
func topKByScore(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}
