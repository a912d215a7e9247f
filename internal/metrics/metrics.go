// Package metrics implements the evaluation metrics reported in the paper:
// top-1/top-k accuracy, confusion matrices, linear Centered Kernel Alignment
// (CKA) between model representations, entropy histograms, and the paper's
// learning-efficiency metric (best accuracy per unit of client training
// time).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/tensor"
)

// ErrMetrics reports an invalid metrics computation.
var ErrMetrics = errors.New("metrics: invalid input")

// EvalBatchSize is the batch size used for evaluation forward passes.
const EvalBatchSize = 128

// Accuracy returns top-1 accuracy of m on ds in [0, 1].
func Accuracy(m *models.Model, ds *data.Dataset) (float64, error) {
	return TopKAccuracy(m, ds, 1)
}

// TopKAccuracy returns the fraction of samples whose true label is within
// the k highest-scoring predictions.
func TopKAccuracy(m *models.Model, ds *data.Dataset, k int) (float64, error) {
	batches, err := ds.Batches(EvalBatchSize, nil)
	if err != nil {
		return 0, err
	}
	return BatchesTopKAccuracy(m, batches, k)
}

// BatchesTopKAccuracy is TopKAccuracy over a dataset already split into
// batches; a caller that evaluates one set again and again keeps its views.
func BatchesTopKAccuracy(m *models.Model, batches []data.Batch, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("%w: k=%d", ErrMetrics, k)
	}
	correct, total := 0, 0
	for _, b := range batches {
		logits := m.Forward(b.X, false)
		n, c := logits.Dim(0), logits.Dim(1)
		if k > c {
			return 0, fmt.Errorf("%w: k=%d for %d classes", ErrMetrics, k, c)
		}
		for i := 0; i < n; i++ {
			row := logits.Data()[i*c : (i+1)*c]
			trueScore := row[b.Y[i]]
			// A NaN score compares false against everything, which would
			// leave rank at 0 and count the sample as a top-1 hit; a model
			// emitting NaN must score as wrong, not perfect.
			if math.IsNaN(float64(trueScore)) {
				continue
			}
			rank := 0
			for j, v := range row {
				if v > trueScore || (v == trueScore && j < b.Y[i]) {
					rank++
				}
			}
			if rank < k {
				correct++
			}
		}
		total += n
	}
	if total == 0 {
		return 0, fmt.Errorf("%w: empty dataset", ErrMetrics)
	}
	return float64(correct) / float64(total), nil
}

// LinearCKA computes the linear Centered Kernel Alignment between two
// representation matrices X (n×p) and Y (n×q) over the same n examples
// (Kornblith et al. 2019):
//
//	CKA(X, Y) = ‖Yᶜᵀ Xᶜ‖²_F / (‖Xᶜᵀ Xᶜ‖_F · ‖Yᶜᵀ Yᶜ‖_F)
//
// where ᶜ denotes column centering. The result is in [0, 1]; 1 means the
// representations are identical up to isotropic scaling and rotation.
func LinearCKA(x, y *tensor.Tensor) (float64, error) {
	if x.Rank() != 2 || y.Rank() != 2 {
		return 0, fmt.Errorf("%w: CKA wants rank-2, got %v and %v", ErrMetrics, x.Shape(), y.Shape())
	}
	n := x.Dim(0)
	if y.Dim(0) != n || n < 2 {
		return 0, fmt.Errorf("%w: CKA rows %d vs %d", ErrMetrics, n, y.Dim(0))
	}
	xc := centerColumns(x)
	yc := centerColumns(y)
	cross := frobTransProduct(yc, xc) // ‖Ycᵀ Xc‖²_F
	xx := frobTransProduct(xc, xc)    // ‖Xcᵀ Xc‖²_F
	yy := frobTransProduct(yc, yc)    // ‖Ycᵀ Yc‖²_F
	denom := math.Sqrt(xx) * math.Sqrt(yy)
	if denom == 0 {
		return 0, fmt.Errorf("%w: CKA on constant representations", ErrMetrics)
	}
	return cross / denom, nil
}

// centerColumns returns a float64 copy of t with column means removed,
// stored row-major as [][]float64 for precision.
func centerColumns(t *tensor.Tensor) [][]float64 {
	n, p := t.Dim(0), t.Dim(1)
	out := make([][]float64, n)
	means := make([]float64, p)
	for i := 0; i < n; i++ {
		row := t.Data()[i*p : (i+1)*p]
		for j, v := range row {
			means[j] += float64(v)
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := t.Data()[i*p : (i+1)*p]
		o := make([]float64, p)
		for j, v := range row {
			o[j] = float64(v) - means[j]
		}
		out[i] = o
	}
	return out
}

// frobTransProduct computes ‖Aᵀ B‖²_F for row-major A (n×p), B (n×q) without
// materializing the p×q product: Σ_{j,k} (Σ_i A[i][j]·B[i][k])² is computed
// via the Gram identity ‖AᵀB‖²_F = Σ_{i,i'} (A_i·A_{i'})(B_i·B_{i'}).
func frobTransProduct(a, b [][]float64) float64 {
	n := len(a)
	// Gram matrices are n×n; n is the (small) evaluation batch count.
	ga := make([][]float64, n)
	gb := make([][]float64, n)
	for i := 0; i < n; i++ {
		ga[i] = make([]float64, n)
		gb[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			var sa, sb float64
			for k := range a[i] {
				sa += a[i][k] * a[j][k]
			}
			for k := range b[i] {
				sb += b[i][k] * b[j][k]
			}
			ga[i][j] = sa
			gb[i][j] = sb
		}
	}
	var total float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := ga[i][j] * gb[i][j]
			if i == j {
				total += v
			} else {
				total += 2 * v
			}
		}
	}
	return total
}

// PairwiseCKA computes the symmetric matrix of LinearCKA values between the
// representations in reps (each n×p over the same samples).
func PairwiseCKA(reps []*tensor.Tensor) ([][]float64, error) {
	k := len(reps)
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		out[i][i] = 1
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			v, err := LinearCKA(reps[i], reps[j])
			if err != nil {
				return nil, fmt.Errorf("metrics: CKA(%d,%d): %w", i, j, err)
			}
			out[i][j] = v
			out[j][i] = v
		}
	}
	return out, nil
}

// MeanOffDiagonal averages the off-diagonal entries of a square matrix —
// the paper's "averaged CKA similarity" (Fig. 4).
func MeanOffDiagonal(m [][]float64) float64 {
	k := len(m)
	if k < 2 {
		return 0
	}
	var sum float64
	var cnt int
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				sum += m[i][j]
				cnt++
			}
		}
	}
	return sum / float64(cnt)
}

// Histogram bins values into bins equal-width buckets over [lo, hi]; values
// outside clamp to the edge buckets. It returns the counts.
func Histogram(values []float64, bins int, lo, hi float64) ([]int, error) {
	if bins <= 0 || hi <= lo {
		return nil, fmt.Errorf("%w: histogram bins=%d range [%v,%v]", ErrMetrics, bins, lo, hi)
	}
	out := make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, v := range values {
		b := int((v - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of values using linear
// interpolation. It copies and sorts internally.
func Quantile(values []float64, q float64) (float64, error) {
	if len(values) == 0 || q < 0 || q > 1 {
		return 0, fmt.Errorf("%w: quantile q=%v over %d values", ErrMetrics, q, len(values))
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// LearningEfficiency is the paper's metric: best test accuracy (percent)
// divided by total client training time (seconds). Higher is better.
func LearningEfficiency(bestAccuracy float64, totalTrainSeconds float64) (float64, error) {
	if totalTrainSeconds <= 0 {
		return 0, fmt.Errorf("%w: training time %v", ErrMetrics, totalTrainSeconds)
	}
	return 100 * bestAccuracy / totalTrainSeconds, nil
}
