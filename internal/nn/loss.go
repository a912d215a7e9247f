package nn

import (
	"fmt"

	"fedfteds/internal/tensor"
)

// SoftmaxCrossEntropy is the categorical cross-entropy loss on logits with an
// optional softmax temperature. Temperature 1 is the standard training loss;
// the entropy-based data selector uses Softmax directly with ρ < 1 instead.
type SoftmaxCrossEntropy struct {
	// Temperature scales logits as z/ρ before the softmax. Zero means 1.
	Temperature float64
}

// LossScratch holds the reusable buffers of the cross-entropy computation so
// the training hot loop allocates nothing per step. The zero value is ready
// to use; a scratch belongs to one training loop (not safe for concurrent
// use). The gradient tensor returned through a scratch is a workspace valid
// until the scratch's next use.
type LossScratch struct {
	dlogits      *tensor.Tensor
	scaled, logp []float32
	softmax      tensor.SoftmaxScratch
}

// Loss returns the mean cross-entropy over the batch and the gradient of
// that mean with respect to the logits. The returned gradient is freshly
// allocated; hot loops use LossInto with a LossScratch instead.
//
// logits has shape (N, C) and labels has length N with values in [0, C).
func (l SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	return l.LossInto(&LossScratch{}, logits, labels)
}

// LossInto is Loss computing into ws's reused buffers: the batch's
// log-softmax in one tensor.LogSoftmaxRows call and its gradient in one
// tensor.CrossEntropyGrad call.
func (l SoftmaxCrossEntropy) LossInto(ws *LossScratch, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	total, rho, err := l.logSoftmax(ws, logits, labels)
	if err != nil {
		return 0, nil, err
	}
	n, c := logits.Dim(0), logits.Dim(1)
	ws.dlogits = tensor.Ensure(ws.dlogits, n, c)
	tensor.CrossEntropyGrad(ws.dlogits.Data(), ws.logp[:n*c], labels, c, 1.0/(float64(n)*rho))
	return total / float64(n), ws.dlogits, nil
}

// Value returns only the mean loss, without allocating gradients.
func (l SoftmaxCrossEntropy) Value(logits *tensor.Tensor, labels []int) (float64, error) {
	total, _, err := l.logSoftmax(&LossScratch{}, logits, labels)
	if err != nil {
		return 0, err
	}
	return total / float64(logits.Dim(0)), nil
}

// logSoftmax checks the batch, writes the log-softmax of logits/ρ into
// ws.logp and returns the summed negative log-likelihood of the labels, in
// batch order, and ρ.
func (l SoftmaxCrossEntropy) logSoftmax(ws *LossScratch, logits *tensor.Tensor, labels []int) (float64, float64, error) {
	if logits.Rank() != 2 {
		return 0, 0, fmt.Errorf("nn: cross-entropy: logits rank %d, want 2", logits.Rank())
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, 0, fmt.Errorf("nn: cross-entropy: %d labels for batch %d", len(labels), n)
	}
	rho := l.Temperature
	if rho == 0 {
		rho = 1
	}
	if rho <= 0 {
		return 0, 0, fmt.Errorf("nn: cross-entropy: temperature %v must be positive", rho)
	}
	for _, y := range labels {
		if y < 0 || y >= c {
			return 0, 0, fmt.Errorf("nn: cross-entropy: label %d outside [0,%d)", y, c)
		}
	}
	if cap(ws.logp) < n*c {
		ws.logp = make([]float32, n*c)
	}
	// At ρ = 1, float32(float64(v)/ρ) is v, a signalling NaN quieted: every
	// operation the log-softmax does on it quiets it the same way, so the
	// logits go in as they are.
	x, logp := logits.Data(), ws.logp[:n*c]
	if rho != 1 {
		if cap(ws.scaled) < n*c {
			ws.scaled = make([]float32, n*c)
		}
		x = ws.scaled[:n*c]
		for j, v := range logits.Data() {
			x[j] = float32(float64(v) / rho)
		}
	}
	tensor.LogSoftmaxRows(&ws.softmax, logp, x, c)
	var total float64
	for i, y := range labels {
		total -= float64(logp[i*c+y])
	}
	return total, rho, nil
}

// ShannonEntropyRows returns the Shannon entropy (natural log) of each row of
// a row-stochastic matrix such as a Softmax output, through
// tensor.EntropyRows. Zero probabilities contribute zero, matching the limit
// p·log p → 0.
func ShannonEntropyRows(probs *tensor.Tensor) []float64 {
	if probs.Rank() != 2 {
		panic(shapeErr("entropy", "rank 2", probs.Shape()))
	}
	out := make([]float64, probs.Dim(0))
	tensor.EntropyRows(&tensor.SoftmaxScratch{}, out, probs.Data(), probs.Dim(1))
	return out
}
