package selection

import (
	"math"
	"math/rand"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
)

// GradNorm selects samples with the largest per-sample gradient-norm upper
// bound, the importance score of Li et al. ("Sample-level data selection for
// federated learning", INFOCOM 2021), which the paper discusses as related
// work. For cross-entropy on logits, the gradient with respect to the logits
// of sample i is p_i − onehot(y_i); its L2 norm bounds the parameter
// gradient norm up to the activation norm, so ranking by ‖p − y‖₂ needs only
// the same single forward pass as entropy selection.
//
// Unlike entropy selection it uses labels, so it emphasizes mislabeled and
// misclassified samples even when the model is confident — a different
// failure mode than EDS (see the acquisition ablation).
type GradNorm struct{}

var _ Selector = GradNorm{}

// Name implements Selector.
func (GradNorm) Name() string { return "gradnorm" }

// ScoringPasses implements Selector.
func (GradNorm) ScoringPasses() int { return 1 }

// Select implements Selector.
func (GradNorm) Select(m *models.Model, ds *data.Dataset, fraction float64, _ *rand.Rand) ([]int, error) {
	return topKByProbabilities(m, ds, fraction, gradNormScore)
}

// gradNormScore is ‖p − onehot(label)‖₂ for one probability row.
func gradNormScore(row []float32, label int) float64 {
	var s float64
	for j, p := range row {
		d := float64(p)
		if j == label {
			d -= 1
		}
		s += d * d
	}
	return math.Sqrt(s)
}
