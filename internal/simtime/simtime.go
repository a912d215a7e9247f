// Package simtime models client device compute time. The paper's
// learning-efficiency results (Figs. 6, 7) divide accuracy by total client
// training seconds on the authors' testbed; we reproduce the *ratios* with a
// FLOP-derived cost model over a heterogeneous device population, as argued
// in DESIGN.md. The package also implements the straggler policies used in
// Table III.
package simtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fedfteds/internal/models"
)

// ErrSim reports an invalid simulation configuration.
var ErrSim = errors.New("simtime: invalid configuration")

// Device models one client's compute capability.
type Device struct {
	// FLOPSRate is the sustained throughput in FLOP/s.
	FLOPSRate float64
}

// NewHeterogeneousDevices draws n device speeds from a lognormal
// distribution with the given median FLOP/s and log-space sigma — the usual
// model for consumer-device populations. sigma 0 yields identical devices.
func NewHeterogeneousDevices(n int, medianFLOPS, sigma float64, rng *rand.Rand) ([]Device, error) {
	if n <= 0 || medianFLOPS <= 0 || sigma < 0 {
		return nil, fmt.Errorf("%w: n=%d median=%v sigma=%v", ErrSim, n, medianFLOPS, sigma)
	}
	out := make([]Device, n)
	for i := range out {
		out[i] = Device{FLOPSRate: medianFLOPS * math.Exp(sigma*rng.NormFloat64())}
	}
	return out, nil
}

// RoundCost itemizes the simulated client time of one local round.
type RoundCost struct {
	// SelectionSeconds covers the data-selection forward pass(es).
	SelectionSeconds float64
	// TrainSeconds covers the local update epochs.
	TrainSeconds float64
}

// Total returns the round's total client seconds.
func (c RoundCost) Total() float64 { return c.SelectionSeconds + c.TrainSeconds }

// ClientRoundCost computes the simulated time of one client round:
// scoringPasses forward passes over the full local dataset (the selector's
// cost) plus epochs passes of forward+partial-backward over the selected
// subset. The model's current finetune part determines the backward cost.
func ClientRoundCost(m *models.Model, dev Device, localSize, selectedSize, epochs, scoringPasses int) (RoundCost, error) {
	return clientRoundCost(float64(m.ForwardFLOPsPerSample()), float64(m.TrainFLOPsPerSample()),
		dev, localSize, selectedSize, epochs, scoringPasses)
}

// ClientRoundCostFor is ClientRoundCost with the training cost projected for
// the given trainable-group mask instead of the model's current frozen
// state. Per-client partial training uses it to cost each tier's mask
// without mutating the shared global model.
func ClientRoundCostFor(m *models.Model, groups []string, dev Device, localSize, selectedSize, epochs, scoringPasses int) (RoundCost, error) {
	train, err := m.TrainFLOPsPerSampleFor(groups)
	if err != nil {
		return RoundCost{}, fmt.Errorf("%w: %v", ErrSim, err)
	}
	return clientRoundCost(float64(m.ForwardFLOPsPerSample()), float64(train),
		dev, localSize, selectedSize, epochs, scoringPasses)
}

func clientRoundCost(fwd, train float64, dev Device, localSize, selectedSize, epochs, scoringPasses int) (RoundCost, error) {
	if localSize < 0 || selectedSize < 0 || selectedSize > localSize || epochs < 0 || scoringPasses < 0 {
		return RoundCost{}, fmt.Errorf("%w: local=%d selected=%d epochs=%d passes=%d",
			ErrSim, localSize, selectedSize, epochs, scoringPasses)
	}
	if dev.FLOPSRate <= 0 {
		return RoundCost{}, fmt.Errorf("%w: device rate %v", ErrSim, dev.FLOPSRate)
	}
	return RoundCost{
		SelectionSeconds: float64(scoringPasses) * fwd * float64(localSize) / dev.FLOPSRate,
		TrainSeconds:     float64(epochs) * train * float64(selectedSize) / dev.FLOPSRate,
	}, nil
}

// StragglerPolicy decides which of the sampled clients actually complete a
// round.
type StragglerPolicy interface {
	// Complete returns the subset of clientIDs that finish the round, given
	// each client's projected round time in seconds (parallel to clientIDs).
	Complete(clientIDs []int, roundSeconds []float64, rng *rand.Rand) []int
}

// FullParticipation lets every sampled client finish.
type FullParticipation struct{}

var _ StragglerPolicy = FullParticipation{}

// Complete implements StragglerPolicy.
func (FullParticipation) Complete(clientIDs []int, _ []float64, _ *rand.Rand) []int {
	return append([]int(nil), clientIDs...)
}

// FractionParticipation keeps a uniform random fraction fn of clients each
// round, matching Table III's fn sweep. The rest are stragglers that drop.
type FractionParticipation struct {
	// Fraction is the participating share in (0, 1].
	Fraction float64
}

var _ StragglerPolicy = FractionParticipation{}

// Complete implements StragglerPolicy.
func (f FractionParticipation) Complete(clientIDs []int, _ []float64, rng *rand.Rand) []int {
	k := int(math.Round(f.Fraction * float64(len(clientIDs))))
	if k < 1 {
		k = 1
	}
	if k > len(clientIDs) {
		k = len(clientIDs)
	}
	perm := rng.Perm(len(clientIDs))
	out := make([]int, 0, k)
	for _, p := range perm[:k] {
		out = append(out, clientIDs[p])
	}
	return out
}

// DeadlineStraggler drops clients whose projected round time exceeds the
// deadline — the mechanism by which heavy workloads create stragglers. At
// least one client always survives (the fastest), so rounds cannot stall.
type DeadlineStraggler struct {
	// DeadlineSeconds is the per-round completion budget.
	DeadlineSeconds float64
}

var _ StragglerPolicy = DeadlineStraggler{}

// Complete implements StragglerPolicy.
func (d DeadlineStraggler) Complete(clientIDs []int, roundSeconds []float64, _ *rand.Rand) []int {
	var out []int
	fastest, fastestTime := -1, math.Inf(1)
	for i, id := range clientIDs {
		if roundSeconds[i] <= d.DeadlineSeconds {
			out = append(out, id)
		}
		if roundSeconds[i] < fastestTime {
			fastest, fastestTime = id, roundSeconds[i]
		}
	}
	if len(out) == 0 && fastest >= 0 {
		out = append(out, fastest)
	}
	return out
}

// Accountant accumulates simulated cost over a run.
type Accountant struct {
	totalSelectionSeconds float64
	totalTrainSeconds     float64
	totalUplinkBytes      int64
	totalDownlinkBytes    int64
}

// AddRound records one client's round cost.
func (a *Accountant) AddRound(c RoundCost) {
	a.totalSelectionSeconds += c.SelectionSeconds
	a.totalTrainSeconds += c.TrainSeconds
}

// AddCommunication records bytes moved for one client round.
func (a *Accountant) AddCommunication(uplink, downlink int64) {
	a.totalUplinkBytes += uplink
	a.totalDownlinkBytes += downlink
}

// TrainSeconds returns cumulative training seconds across all clients.
func (a *Accountant) TrainSeconds() float64 { return a.totalTrainSeconds }

// SelectionSeconds returns cumulative selection-scoring seconds.
func (a *Accountant) SelectionSeconds() float64 { return a.totalSelectionSeconds }

// TotalSeconds returns all client compute seconds.
func (a *Accountant) TotalSeconds() float64 {
	return a.totalTrainSeconds + a.totalSelectionSeconds
}

// UplinkBytes returns cumulative client→server bytes.
func (a *Accountant) UplinkBytes() int64 { return a.totalUplinkBytes }

// DownlinkBytes returns cumulative server→client bytes.
func (a *Accountant) DownlinkBytes() int64 { return a.totalDownlinkBytes }

// AccountantState is an Accountant's complete exported state. Restoring the
// exact float64 accumulator values (not recomputing them) keeps a resumed
// run's cost accounting bit-identical to an uninterrupted one: floating-point
// accumulation continues from the same representable values.
type AccountantState struct {
	// SelectionSeconds and TrainSeconds are the cumulative simulated
	// client-compute accumulators.
	SelectionSeconds, TrainSeconds float64
	// UplinkBytes and DownlinkBytes are the cumulative traffic volumes.
	UplinkBytes, DownlinkBytes int64
}

// State exports the accountant's accumulators for checkpointing.
func (a *Accountant) State() AccountantState {
	return AccountantState{
		SelectionSeconds: a.totalSelectionSeconds,
		TrainSeconds:     a.totalTrainSeconds,
		UplinkBytes:      a.totalUplinkBytes,
		DownlinkBytes:    a.totalDownlinkBytes,
	}
}

// Restore replaces the accountant's accumulators, reversing State.
func (a *Accountant) Restore(s AccountantState) {
	a.totalSelectionSeconds = s.SelectionSeconds
	a.totalTrainSeconds = s.TrainSeconds
	a.totalUplinkBytes = s.UplinkBytes
	a.totalDownlinkBytes = s.DownlinkBytes
}
