package selection

import (
	"math"
	"math/rand"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
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
func (GradNorm) Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
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
			var s float64
			for j, p := range row {
				d := float64(p)
				if j == b.Y[i] {
					d -= 1
				}
				s += d * d
			}
			scores = append(scores, math.Sqrt(s))
		}
	}
	return topKByScore(scores, k), nil
}
