// Package core implements the paper's contribution: the federated-learning
// engine with pluggable optimization strategies (internal/strategy: FedAvg,
// FedProx, and the FedOpt server optimizers FedAvgM/FedAdam/FedYogi),
// entropy-based (and other) data selection, strategy-owned aggregation
// weighting, straggler policies, and full time/communication accounting.
// Clients train concurrently on a bounded worker pool with per-(round,
// client) derived seeds, so results are bit-identical regardless of
// parallelism.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"fedfteds/internal/comm"
	"fedfteds/internal/device"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// ErrConfig reports an invalid federated-learning configuration.
var ErrConfig = errors.New("core: invalid configuration")

// Config describes one federated-learning run.
type Config struct {
	// Rounds is the number of communication rounds T.
	Rounds int
	// LocalEpochs is E, the client update epochs per round (paper: 5).
	LocalEpochs int
	// BatchSize for local updates (and centralized training).
	BatchSize int
	// LR is the client learning rate (paper: 0.1).
	LR float64
	// Momentum is client SGD's heavy-ball coefficient (paper: 0.5). Clients
	// train without weight decay, as the paper's do.
	Momentum float64
	// Strategy selects the federated-optimization strategy: the aggregation
	// weighting, the server-side optimizer applied to the weighted client
	// average, and an optional client-side objective hook (FedProx's
	// proximal term). Nil means strategy.FedAvg(), bit-identical to runs
	// predating the strategy layer. Stateful strategies must not be shared
	// across runs — construct one per Runner (strategy.Parse always returns
	// a fresh instance).
	Strategy strategy.Strategy
	// FinetunePart controls partial training: FinetuneFull is FedAvg-style
	// whole-model training; FinetuneModerate is the paper's FedFT default.
	FinetunePart models.FinetunePart
	// TierDist, when set, assigns every client a device-capability tier
	// (device.Distribution over the built-in profiles) and switches the run
	// to per-client partial training: each client trains and ships only the
	// layer-group mask its tier can afford, and the server averages each
	// group over the clients that covered it. Nil keeps the uniform
	// FinetunePart behavior, bit-identical to untiered runs.
	TierDist *device.Distribution
	// Selector picks each client's training subset per round.
	Selector selection.Selector
	// SelectFraction is P_ds, the share of local data selected (0, 1].
	SelectFraction float64
	// Scheduler samples the per-round cohort from the full client pool
	// before any training happens; the Straggler policy then applies within
	// the cohort. Nil trains the whole pool every round (the legacy
	// behavior, bit-identical to runs predating the scheduler).
	Scheduler sched.Scheduler
	// CohortSize is K, the number of clients the Scheduler may pick per
	// round; 0 (or any value >= the pool) means the whole pool. Setting
	// CohortSize without a Scheduler defaults to UniformRandom sampling.
	CohortSize int
	// Straggler decides which clients complete each round.
	Straggler simtime.StragglerPolicy
	// Async lets rounds overlap (buffered asynchronous, FedBuff-style
	// aggregation). Its zero value, Buffer 0, is the synchronous round.
	Async AsyncConfig
	// Codec, when set, simulates the distributed deployment's uplink codec
	// (comm.ParseCodec spec, e.g. "int8" or "topk:0.05"): every client's
	// trained state is encoded and decoded through the codec before
	// aggregation — quantization noise, error-feedback residuals and all —
	// and the communication accounting charges the real payload bytes.
	// Empty keeps the legacy lossless path bit-identical to runs predating
	// codecs. "identity" runs the full round-trip too (losslessly), so
	// accounting then includes the blob's 4-byte count header that the
	// legacy path's per-tensor sum omits.
	Codec string
	// Parallelism bounds concurrent client updates (default GOMAXPROCS).
	// Each client in training occupies one kernel lane, so its kernels fan
	// out only over the lanes the others leave free.
	Parallelism int
	// Seed drives all run randomness (client sampling, selection, batching).
	Seed int64
	// CheckpointDir, when set, makes Run write a resumable checkpoint into
	// this directory every CheckpointEvery rounds (and always after the
	// final round, so finished runs can later be extended). A run resumed
	// from such a checkpoint reproduces the uninterrupted run bit for bit.
	CheckpointDir string
	// CheckpointEvery is the round interval between checkpoints; it defaults
	// to 1 when CheckpointDir is set and must not be set without a
	// CheckpointDir.
	CheckpointEvery int
}

// withDefaults returns cfg with unset optional fields filled in.
func (c Config) withDefaults() Config {
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Straggler == nil {
		c.Straggler = simtime.FullParticipation{}
	}
	if c.CohortSize > 0 && c.Scheduler == nil {
		c.Scheduler = sched.UniformRandom{}
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.FinetunePart == 0 {
		c.FinetunePart = models.FinetuneFull
	}
	if c.Selector == nil {
		c.Selector = selection.All{}
	}
	if c.SelectFraction == 0 {
		c.SelectFraction = 1
	}
	if c.CheckpointDir != "" && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	return c
}

// validate checks a defaulted config.
func (c Config) validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("%w: rounds %d", ErrConfig, c.Rounds)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("%w: local epochs %d", ErrConfig, c.LocalEpochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("%w: batch size %d", ErrConfig, c.BatchSize)
	// NaN fails every comparison, so each range is written to fail on it.
	case !(c.LR > 0) || math.IsInf(c.LR, 1):
		return fmt.Errorf("%w: learning rate %v", ErrConfig, c.LR)
	case !(c.Momentum >= 0 && c.Momentum < 1):
		return fmt.Errorf("%w: momentum %v", ErrConfig, c.Momentum)
	case !(c.SelectFraction > 0 && c.SelectFraction <= 1):
		return fmt.Errorf("%w: select fraction %v", ErrConfig, c.SelectFraction)
	case c.CohortSize < 0:
		return fmt.Errorf("%w: cohort size %d", ErrConfig, c.CohortSize)
	case c.Parallelism < 1:
		return fmt.Errorf("%w: parallelism %d", ErrConfig, c.Parallelism)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("%w: checkpoint every %d", ErrConfig, c.CheckpointEvery)
	case c.CheckpointEvery > 0 && c.CheckpointDir == "":
		return fmt.Errorf("%w: checkpoint interval without a checkpoint directory", ErrConfig)
	}
	if c.Codec != "" {
		if _, err := comm.ParseCodec(c.Codec); err != nil {
			return fmt.Errorf("%w: codec %q: %v", ErrConfig, c.Codec, err)
		}
	}
	return nil
}
