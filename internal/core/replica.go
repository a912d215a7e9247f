package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/seeds"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// reuseReplicas is a test hook. Production runs always train on the Runner's
// pooled replicas and on the replica LocalUpdate keeps per model; the
// equivalence tests flip it to give every client-round a fresh one-shot
// replica instead, pinning that reuse leaks no state from one client into
// the next.
var reuseReplicas = true

// replica is a client-training context: a model clone, an SGD over its
// trainable parameters, a streaming batch iterator, and the loss scratch.
// The Runner keeps one per worker and rebinds it per client (instead of a
// full Clone per client-round), which together with the per-layer workspace
// caches makes the steady-state training loop allocation-free; LocalUpdate
// keeps one per model it is called on and rebinds it per call (kept).
//
// A replica belongs to exactly one worker goroutine at a time. Rebinding is
// bit-identical to cloning: the full model state (params and buffers) is
// copied from the global model, dropout RNGs rewind to their build-time
// streams, and the optimizer resets its velocity and proximal anchor.
type replica struct {
	model *models.Model
	// depth is P, the number of leading groups the bound mask freezes, and
	// head is model entered at group P (model itself when P is 0): what
	// selection, the epochs and Backward run, on feats' view of the client's
	// data. Both follow the mask (enter).
	depth int
	head  *models.Model
	feats features
	sgd   *opt.SGD
	iter  data.BatchIter
	loss  nn.LossScratch
	// hook is the strategy's client-side objective twist, bound per round.
	hook strategy.LocalHook
	// partGroups are the groups the construction-time finetune part trains:
	// the mask LocalUpdate rebinds when a call names none.
	partGroups []string
	// maskKey names the layer mask the model is currently set to, and sgds
	// caches one optimizer per distinct mask (each mask has its own
	// trainable-parameter set): tiered runs rebind masks per client without
	// re-allocating velocity buffers. Both are filled on the first masked
	// rebind: the Runner's untiered path and one-shot replicas never leave
	// the construction-time model/optimizer pair and never pay for the
	// cache. sgdCfg, the tuned optimizer config the replica was built with,
	// rebuilds optimizers for masks first seen mid-run and tells LocalUpdate
	// whether a call may reuse the replica.
	maskKey string
	sgds    map[string]*opt.SGD
	sgdCfg  opt.SGDConfig
}

// newReplica clones global into a training context at the configured
// finetune part, narrowed to mask when one is given, with exactly one SGD
// over the resulting trainable parameters.
func newReplica(global *models.Model, cfg Config, mask []string) (*replica, error) {
	m, err := global.Clone()
	if err != nil {
		return nil, fmt.Errorf("clone: %w", err)
	}
	if err := m.SetFinetunePart(cfg.FinetunePart); err != nil {
		return nil, err
	}
	partGroups := m.TrainableGroupNames()
	if len(mask) > 0 {
		if err := m.SetTrainableGroups(mask); err != nil {
			return nil, fmt.Errorf("mask: %w", err)
		}
	}
	sgdCfg, hook := localSGD(cfg)
	sgd, err := opt.NewSGD(sgdCfg, m.TrainableParams())
	if err != nil {
		return nil, err
	}
	rep := &replica{model: m, sgd: sgd, hook: hook, partGroups: partGroups, sgdCfg: sgdCfg}
	rep.enter()
	return rep, nil
}

// localSGD is the client optimizer cfg asks for, and the strategy's local
// hook. The hook carries the per-round objective twist (FedProx tunes μ into
// the optimizer and snapshots the proximal anchor at bind time); plain
// strategies, and a nil Strategy, leave the optimizer untouched.
func localSGD(cfg Config) (opt.SGDConfig, strategy.LocalHook) {
	sgdCfg := opt.SGDConfig{
		LR:          cfg.LR,
		Momentum:    cfg.Momentum,
		WeightDecay: cfg.WeightDecay,
	}
	var hook strategy.LocalHook
	if cfg.Strategy != nil {
		if hook = cfg.Strategy.LocalHook(); hook != nil {
			// The hook's copy escapes; a plain call's config stays on the stack.
			tuned := sgdCfg
			hook.TuneSGD(&tuned)
			sgdCfg = tuned
		}
	}
	return sgdCfg, hook
}

// enter points the replica's head at the lowest group its model's current
// mask trains.
func (rep *replica) enter() {
	rep.depth = rep.model.FrozenDepth()
	rep.head = rep.model.From(rep.depth)
}

// rebind points a pooled replica at its next client: the global state copied
// in, the client's layer mask bound, transient RNGs and optimizer state
// rewound — everything a fresh newReplica would start from.
func (rep *replica) rebind(global *models.Model, mask []string) error {
	if err := rep.model.CopyStateFrom(global); err != nil {
		return fmt.Errorf("rebind replica: %w", err)
	}
	if err := rep.bindMask(mask); err != nil {
		return fmt.Errorf("mask: %w", err)
	}
	rep.model.ResetTransientRNGs()
	rep.sgd.Reset()
	return nil
}

// bindMask applies a client's layer mask to the replica, swapping in the
// mask's cached optimizer (or building one on first sight). A nil mask — the
// untiered path — and a mask equal to the current one are no-ops, so legacy
// runs and full-tier clients keep the construction-time model/optimizer pair
// bit for bit.
func (rep *replica) bindMask(mask []string) error {
	if mask == nil {
		return nil
	}
	if rep.sgds == nil {
		rep.maskKey = strings.Join(rep.model.TrainableGroupNames(), ",")
		rep.sgds = map[string]*opt.SGD{rep.maskKey: rep.sgd}
	}
	if sameMask(mask, rep.maskKey) {
		return nil
	}
	key := strings.Join(mask, ",")
	if err := rep.model.SetTrainableGroups(mask); err != nil {
		return err
	}
	sgd, ok := rep.sgds[key]
	if !ok {
		var err error
		if sgd, err = opt.NewSGD(rep.sgdCfg, rep.model.TrainableParams()); err != nil {
			return err
		}
		rep.sgds[key] = sgd
	}
	rep.sgd, rep.maskKey = sgd, key
	rep.enter()
	return nil
}

// sameMask reports whether mask joined by commas is key, without building
// the join: a replica rebound to the mask it already has allocates nothing.
func sameMask(mask []string, key string) bool {
	for i, g := range mask {
		if i > 0 {
			if !strings.HasPrefix(key, ",") {
				return false
			}
			key = key[1:]
		}
		if !strings.HasPrefix(key, g) {
			return false
		}
		key = key[len(g):]
	}
	return key == ""
}

// featureBatch is how many samples one step of a frozen-prefix pass pushes
// through the prefix; the kernels work row by row, so it shapes nothing but
// the size of the gather buffer.
const featureBatch = 64

// features holds one dataset as a model's first live group sees it: the
// frozen prefix's activations for every sample, computed in one pass into a
// buffer that is reused for the next dataset. The frozen groups are the same
// for scoring, for every epoch and for evaluation, so they run once here
// instead of once per use.
type features struct {
	iter  data.BatchIter // gathers the raw batches
	shape []int
	ds    data.Dataset
}

// of returns ds — the input of m's group from — as group to sees it: ds.X
// through m's groups [from, to), the labels untouched. With no group to run
// that is ds itself and nothing is copied. The result is valid until the
// next call.
func (f *features) of(m *models.Model, from, to int, ds *data.Dataset) (*data.Dataset, error) {
	if from == to || ds.Len() == 0 {
		return ds, nil
	}
	x, err := f.pass(f.ds.X, m, from, to, ds)
	if err != nil {
		return nil, err
	}
	f.ds.X, f.ds.Y, f.ds.NumClasses = x, ds.Y, ds.NumClasses
	return &f.ds, nil
}

// pass runs the rows of a non-empty ds.X through m's groups [from, to),
// featureBatch rows at a time, into dst — reshaped by tensor.Ensure, so a nil
// dst is allocated — and returns it.
func (f *features) pass(dst *tensor.Tensor, m *models.Model, from, to int, ds *data.Dataset) (*tensor.Tensor, error) {
	if err := f.iter.Bind(ds, nil, featureBatch); err != nil {
		return nil, err
	}
	f.iter.Reset(nil)
	view := m.From(from)
	for done := 0; ; {
		b, ok := f.iter.Next()
		if !ok {
			return dst, nil
		}
		// Layer outputs are workspaces: copy each batch out before the next.
		out := view.ForwardPrefix(b.X, to)
		if done == 0 {
			f.shape = append(f.shape[:0], ds.Len())
			for d := 1; d < out.Rank(); d++ {
				f.shape = append(f.shape, out.Dim(d))
			}
			dst = tensor.Ensure(dst, f.shape...)
		}
		done += copy(dst.Data()[done:], out.Data())
	}
}

// train executes one client's local round on a freshly built or rebound
// replica: data selection, E epochs of SGD on the selected subset, and cost
// accounting. in is the client's data as group from sees it — cl.Data at 0,
// or features the caller kept, at most the replica's depth. The trained
// state of the trainable groups is copied into stateBuf's reused tensors,
// which the caller owns; a nil stateBuf returns the replica's live tensors
// instead, valid until the replica is rebound.
func (rep *replica) train(cfg Config, cl *Client, in *data.Dataset, from, round int, stateBuf *[]*tensor.Tensor) (clientResult, error) {
	rng := seeds.ClientRound(cfg.Seed, round, cl.ID)
	// One pass through the frozen groups [from, P) serves the scoring pass
	// and every epoch: from here on the client's data is what the head sees
	// of it.
	local, err := rep.feats.of(rep.model, from, rep.depth, in)
	if err != nil {
		return clientResult{}, fmt.Errorf("core: client %d: features: %w", cl.ID, err)
	}

	var (
		selIdx      []int
		meanEntropy = math.NaN()
	)
	if us, ok := cfg.Selector.(selection.UtilityScorer); ok {
		selIdx, meanEntropy, err = us.SelectWithUtility(rep.head, local, cfg.SelectFraction, rng)
	} else {
		selIdx, err = cfg.Selector.Select(rep.head, local, cfg.SelectFraction, rng)
	}
	if err != nil {
		return clientResult{}, fmt.Errorf("core: client %d: selection: %w", cl.ID, err)
	}
	if err := rep.iter.Bind(local, selIdx, cfg.BatchSize); err != nil {
		return clientResult{}, fmt.Errorf("core: client %d: batches: %w", cl.ID, err)
	}
	if rep.hook != nil {
		if err := rep.hook.OnBind(rep.sgd); err != nil {
			return clientResult{}, fmt.Errorf("core: client %d: hook %s: %w", cl.ID, rep.hook.Name(), err)
		}
	}

	numSelected := rep.iter.Len()
	var lastLoss float64
	for epoch := 0; epoch < cfg.LocalEpochs; epoch++ {
		epochLoss, err := trainEpoch(rep.head, rep.sgd, &rep.iter, &rep.loss, rng)
		if err != nil {
			return clientResult{}, fmt.Errorf("core: client %d: loss: %w", cl.ID, err)
		}
		lastLoss = epochLoss / float64(numSelected)
	}

	cost, err := simtime.ClientRoundCost(rep.model, cl.Device,
		cl.Data.Len(), numSelected, cfg.LocalEpochs, cfg.Selector.ScoringPasses())
	if err != nil {
		return clientResult{}, fmt.Errorf("core: client %d: cost: %w", cl.ID, err)
	}

	live, err := rep.model.GroupStateTensors(rep.model.TrainableGroupNames())
	if err != nil {
		return clientResult{}, fmt.Errorf("core: client %d: state: %w", cl.ID, err)
	}
	state := live
	if stateBuf != nil {
		state = snapshotState(*stateBuf, live)
		*stateBuf = state
	}
	return clientResult{
		clientID:    cl.ID,
		state:       state,
		numSelected: numSelected,
		localSize:   cl.Data.Len(),
		cost:        cost,
		trainLoss:   lastLoss,
		meanEntropy: meanEntropy,
	}, nil
}

// trainEpoch runs one reshuffled SGD pass over the samples iter is bound to —
// forward, loss, backward, step per minibatch — and returns the summed
// per-sample loss. It is the repository's one training loop body: client
// rounds and centralized training both run it.
func trainEpoch(m *models.Model, sgd *opt.SGD, iter *data.BatchIter, ls *nn.LossScratch, rng *rand.Rand) (float64, error) {
	iter.Reset(rng)
	var sum float64
	for {
		b, ok := iter.Next()
		if !ok {
			return sum, nil
		}
		logits := m.Forward(b.X, true)
		v, dl, err := nn.SoftmaxCrossEntropy{}.LossInto(ls, logits, b.Y)
		if err != nil {
			return 0, err
		}
		m.Backward(dl)
		sgd.Step()
		sum += v * float64(len(b.Y))
	}
}

// snapshotState copies live into buf's retained tensors — cloning where buf
// holds none yet, re-shaping where a tensor's shape changed — and returns the
// snapshot, which reuses buf's backing array when it is large enough.
func snapshotState(buf, live []*tensor.Tensor) []*tensor.Tensor {
	if cap(buf) < len(live) {
		buf = append(buf[:cap(buf)], make([]*tensor.Tensor, len(live)-cap(buf))...)
	}
	buf = buf[:len(live)]
	for i, src := range live {
		switch {
		case buf[i] == nil:
			buf[i] = src.Clone()
			continue
		case !buf[i].SameShape(src):
			buf[i] = tensor.Ensure(buf[i], src.Shape()...)
		}
		copy(buf[i].Data(), src.Data())
	}
	return buf
}
