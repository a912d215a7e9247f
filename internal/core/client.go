package core

import (
	"fmt"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/simtime"
	"fedfteds/internal/tensor"
)

// Client is one federated participant: a local dataset and a device profile.
type Client struct {
	// ID is the client's index in the federation.
	ID int
	// Data is the client's private local dataset.
	Data *data.Dataset
	// Device models the client's compute speed.
	Device simtime.Device
	// Cluster is the client's similarity-cluster index (0 when unclustered),
	// surfaced to cluster-stratified schedulers via ClientSource.Describe.
	Cluster int
}

// LocalOutcome is the result of one client-side local round.
type LocalOutcome struct {
	// State is the updated state of the trainable groups: the tensors of the
	// one-shot replica the round trained, which nothing else references.
	State []*tensor.Tensor
	// NumSelected is |D_select|, the number of samples trained on.
	NumSelected int
	// Cost is the simulated device time of the round.
	Cost simtime.RoundCost
	// TrainLoss is the final epoch's mean training loss.
	TrainLoss float64
	// MeanEntropy is the mean EDS entropy over the client's full local
	// dataset, reported from the selection scoring pass at no extra cost;
	// NaN when the selector has no utility signal. The server's cohort
	// scheduler uses it as the client-level utility.
	MeanEntropy float64
}

// clientResult carries one client's round outcome back to the server.
type clientResult struct {
	clientID int
	state    []*tensor.Tensor
	// cover maps every communicated tensor to its index in state, -1 where
	// the client's layer mask excludes it; nil when state is the whole
	// communicated state. uplink is the update's size on the wire.
	cover       []int
	uplink      int64
	numSelected int
	localSize   int
	cost        simtime.RoundCost
	trainLoss   float64
	meanEntropy float64
}

// LocalUpdate executes one local round on a clone of the global model: data
// selection, E epochs of SGD on the selected subset, and cost accounting —
// the Runner's training loop on a fresh one-shot replica. It is the
// client-side primitive of the distributed fedclient binary, whose layer mask
// (cfg.TrainGroups) narrows both what trains and what State returns. cfg must
// already have defaults applied when called outside the Runner;
// NewLocalConfig does that.
func LocalUpdate(cfg Config, global *models.Model, cl *Client, round int) (LocalOutcome, error) {
	rep, err := newReplica(global, cfg, cfg.TrainGroups)
	if err != nil {
		return LocalOutcome{}, fmt.Errorf("core: client %d: %w", cl.ID, err)
	}
	res, err := rep.train(cfg, cl, round, nil)
	if err != nil {
		return LocalOutcome{}, err
	}
	return LocalOutcome{
		State:       res.state,
		NumSelected: res.numSelected,
		Cost:        res.cost,
		TrainLoss:   res.trainLoss,
		MeanEntropy: res.meanEntropy,
	}, nil
}

// NewLocalConfig applies defaults and validates a config for standalone
// LocalUpdate use (the distributed fedclient path, where no Runner exists).
// Cohort scheduling and the uplink codec are server-side concerns, so any
// CohortSize/Scheduler/Codec settings are stripped rather than defaulted: a
// standalone client must not silently grow a scheduler it can never invoke,
// and it encodes its wire update itself (the negotiated codec lives in the
// transport layer, not in the local-training config).
func NewLocalConfig(cfg Config) (Config, error) {
	cfg.CohortSize = 0
	cfg.Scheduler = nil
	cfg.Codec = ""
	cfg = cfg.withDefaults()
	if cfg.Rounds == 0 {
		cfg.Rounds = 1 // standalone clients do not drive the round count
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
