package core

import (
	"fmt"
	"runtime"
	"sync"
	"weak"

	"fedfteds/internal/data"
	"fedfteds/internal/device"
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

// TierClient returns a copy of cl computing at its capability tier's rate:
// the FLOPS rate scaled by the tier's FLOPSFactor, as a served client charges
// its rounds. The Runner charges a tier at the client's own rate, so a
// simulation that should agree with a served one scales its pool here.
func TierClient(cl *Client, tier string) (*Client, error) {
	prof, err := device.Lookup(tier)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	scaled := *cl
	scaled.Device.FLOPSRate *= prof.FLOPSFactor
	return &scaled, nil
}

// LocalOutcome is the result of one client-side local round.
type LocalOutcome struct {
	// State is the updated state of the trainable groups: the live tensors
	// of the replica the round trained, which LocalUpdate keeps for the
	// model it was called on. It is valid until the next LocalUpdate on the
	// same model begins; a caller that needs it longer copies it.
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
	// uplink is the update's size on the wire.
	uplink      int64
	numSelected int
	localSize   int
	cost        simtime.RoundCost
	trainLoss   float64
	meanEntropy float64
}

// LocalUpdate executes one local round on a replica of the global model:
// data selection, E epochs of SGD on the selected subset, and cost
// accounting — the Runner's training loop. It is the client-side primitive of
// the distributed fedclient binary, whose tier's layer mask, passed as mask,
// narrows both what trains and what State returns below what cfg's finetune
// part allows; no mask trains the whole finetune part. cfg must already have
// defaults applied when called outside the Runner; NewLocalConfig does that.
//
// The first call on a model clones it into a replica; later calls rebind
// that replica (the global state copied in, optimizer and RNGs rewound),
// which is bit-identical to a fresh clone and allocates no model-sized
// memory. A call whose finetune part or tuned optimizer differs from the
// kept replica's builds a fresh one that replaces it. Concurrent calls on
// one model each train their own replica.
func LocalUpdate(cfg Config, global *models.Model, cl *Client, round int, mask ...string) (LocalOutcome, error) {
	rep, err := takeReplica(cfg, global, mask)
	if err != nil {
		return LocalOutcome{}, fmt.Errorf("core: client %d: %w", cl.ID, err)
	}
	res, err := rep.train(cfg, cl, cl.Data, 0, round, nil)
	if err != nil {
		return LocalOutcome{}, err
	}
	keepReplica(global, rep)
	return LocalOutcome{
		State:       res.state,
		NumSelected: res.numSelected,
		Cost:        res.cost,
		TrainLoss:   res.trainLoss,
		MeanEntropy: res.meanEntropy,
	}, nil
}

// kept holds the replica LocalUpdate last trained for each model, keyed
// weakly so an entry goes when its model does. A call takes its model's
// replica out for its duration (the entry stays, nil, so the model's cleanup
// is registered once) and puts it back at the end, replacing whatever a
// concurrent call put there first.
var kept = struct {
	sync.Mutex
	reps map[weak.Pointer[models.Model]]*replica
}{reps: map[weak.Pointer[models.Model]]*replica{}}

// takeReplica returns global's kept replica rebound for cfg and mask when it
// was built for the same finetune part and tuned optimizer, and a fresh
// replica otherwise.
func takeReplica(cfg Config, global *models.Model, mask []string) (*replica, error) {
	if !reuseReplicas {
		return newReplica(global, cfg, mask)
	}
	key := weak.Make(global)
	kept.Lock()
	rep := kept.reps[key]
	if rep != nil {
		kept.reps[key] = nil
	}
	kept.Unlock()
	sgdCfg, hook := localSGD(cfg)
	if rep == nil || rep.model.FinetunePart() != cfg.FinetunePart || rep.sgdCfg != sgdCfg {
		return newReplica(global, cfg, mask)
	}
	if len(mask) == 0 {
		mask = rep.partGroups
	}
	if err := rep.rebind(global, mask); err != nil {
		return nil, err
	}
	rep.hook = hook
	return rep, nil
}

// keepReplica stores rep as global's kept replica.
func keepReplica(global *models.Model, rep *replica) {
	if !reuseReplicas {
		return
	}
	key := weak.Make(global)
	kept.Lock()
	defer kept.Unlock()
	if _, ok := kept.reps[key]; !ok {
		runtime.AddCleanup(global, func(key weak.Pointer[models.Model]) {
			kept.Lock()
			delete(kept.reps, key)
			kept.Unlock()
		}, key)
	}
	kept.reps[key] = rep
}

// NewLocalConfig applies defaults and validates a config for standalone
// LocalUpdate use (the distributed fedclient path, where no Runner exists).
// Cohort scheduling, the buffer and the uplink codec are server-side
// concerns, so any CohortSize/Scheduler/Async/Codec settings are stripped
// rather than defaulted: a standalone client must not silently grow a
// scheduler it can never invoke, and it encodes its wire update itself (the
// negotiated codec lives in the transport layer, not in the local-training
// config).
func NewLocalConfig(cfg Config) (Config, error) {
	cfg.CohortSize = 0
	cfg.Scheduler = nil
	cfg.Codec = ""
	cfg.Async = AsyncConfig{}
	cfg = cfg.withDefaults()
	if cfg.Rounds == 0 {
		cfg.Rounds = 1 // standalone clients do not drive the round count
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
