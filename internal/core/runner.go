package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fedfteds/internal/comm"
	"fedfteds/internal/data"
	"fedfteds/internal/device"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// RoundRecord captures the state of the run after one communication round.
type RoundRecord struct {
	// Round is the 1-based round index.
	Round int
	// CohortSize is how many clients the scheduler admitted to this round
	// (the straggler policy then applies within the cohort). It equals the
	// pool size when no scheduler is configured.
	CohortSize int
	// SchedPolicy names the cohort-scheduling policy that produced this
	// round's cohort; empty when no scheduler is configured.
	SchedPolicy string
	// Participants is the number of clients whose updates were aggregated.
	Participants int
	// TestAccuracy is the global model's test accuracy after this round, or
	// NaN when the round was not evaluated.
	TestAccuracy float64
	// MeanTrainLoss averages the participants' final local losses.
	MeanTrainLoss float64
	// CumTrainSeconds is the cumulative simulated client compute time
	// (training + selection scoring) up to and including this round.
	CumTrainSeconds float64
	// CumUplinkBytes is the cumulative client→server traffic.
	CumUplinkBytes int64
}

// History is the outcome of a federated run.
type History struct {
	// Records holds one entry per round.
	Records []RoundRecord
	// BestAccuracy is the best observed test accuracy.
	BestAccuracy float64
	// FinalAccuracy is the test accuracy after the last round.
	FinalAccuracy float64
	// TotalTrainSeconds is the total simulated client compute time.
	TotalTrainSeconds float64
	// TotalUplinkBytes and TotalDownlinkBytes are the run's traffic volumes.
	TotalUplinkBytes   int64
	TotalDownlinkBytes int64
}

// Curve returns the per-round test accuracies (NaN for unevaluated rounds).
func (h History) Curve() []float64 {
	out := make([]float64, len(h.Records))
	for i, r := range h.Records {
		out[i] = r.TestAccuracy
	}
	return out
}

// LearningEfficiency returns the paper's efficiency metric for this run.
func (h History) LearningEfficiency() (float64, error) {
	return metrics.LearningEfficiency(h.BestAccuracy, h.TotalTrainSeconds)
}

// Progress is what a run carries from one round to the next besides the
// model: the History, the cost accounting and the scheduler's feedback store.
// The Runner and federation.Serve each hold one; Record and Finish are the
// only writers of a round's record and of the run's totals, and
// RunIdentity.Capture and Restore carry it across a checkpoint.
type Progress struct {
	Hist    History
	Acct    simtime.Accountant
	Tracker *sched.Tracker
}

// Record appends one round's record, filling its Cum* fields from the
// accounting; an evaluated round (TestAccuracy not NaN) also updates the
// best and final accuracy.
func (p *Progress) Record(rec RoundRecord) {
	rec.CumTrainSeconds, rec.CumUplinkBytes = p.Acct.TotalSeconds(), p.Acct.UplinkBytes()
	if acc := rec.TestAccuracy; !math.IsNaN(acc) {
		if acc > p.Hist.BestAccuracy {
			p.Hist.BestAccuracy = acc
		}
		p.Hist.FinalAccuracy = acc
	}
	p.Hist.Records = append(p.Hist.Records, rec)
}

// Finish closes the history's totals from the accounting and returns it.
func (p *Progress) Finish() History {
	p.Hist.TotalTrainSeconds = p.Acct.TotalSeconds()
	p.Hist.TotalUplinkBytes = p.Acct.UplinkBytes()
	p.Hist.TotalDownlinkBytes = p.Acct.DownlinkBytes()
	return p.Hist
}

// Runner orchestrates a federated-learning run.
type Runner struct {
	cfg    Config
	global *models.Model
	// clients is the legacy eager pool; nil on fleet-backed runners
	// (NewRunnerWithSource), whose clients come from src on demand. src is
	// always set: NewRunner wraps the eager pool in an eagerSource so the
	// round loop has exactly one client-access path.
	clients []*Client
	src     ClientSource
	test    *data.Dataset
	// strat is the resolved federated-optimization strategy (cfg.Strategy,
	// or strategy.FedAvg() when none is set). It owns the
	// aggregation weighting and how the weighted client average moves the
	// global model.
	strat strategy.Strategy

	// projCost caches each client's projected round cost. Model shape,
	// device rate and dataset size never change during a run, so the costs
	// are computed once (in prepareRun, after the finetune part is applied)
	// instead of once per client per round.
	projCost []float64
	// cands is the run's candidate table, one row per pool position (nil
	// without a scheduler). prepareRun builds it from the descriptors and
	// projected costs and stamps it from the utility tracker; after that the
	// loop re-stamps only the row of an update it folded. A round with nothing
	// in flight hands the table itself to the scheduler; a buffered round
	// copies the idle rows into candScratch. partScratch is the reused
	// participant list.
	cands, candScratch []sched.Candidate
	partScratch        []*Client
	// foldBuf is the one blob every folded update is encoded into on its way
	// to the aggregator, reused from update to update and run to run.
	foldBuf []byte
	// replicas are the per-worker reusable client-training contexts,
	// created lazily on first use and kept across rounds.
	replicas []*replica
	// evalSet is the test set as evalHead — the global model entered at its
	// first communicated group — sees it. Groups below the finetune part are
	// never communicated, so nothing a run does can write them and one pass
	// through them lasts the run. A caller can, between runs: prepareRun and
	// RestoreInto drop evalSet and the next evaluation rebuilds it. It is
	// never checkpointed.
	evalHead  *models.Model
	evalSet   *data.Dataset
	testFeats features

	// The communicated state, resolved once per run: commGroups names the
	// groups that train and travel, commState holds their live tensors in the
	// global model and stateSize their wire size.
	commGroups []string
	commState  []*tensor.Tensor
	stateSize  int64
	// Partial-training state (nil on untiered runs, where every update covers
	// the whole communicated state). tiers assigns a device tier to every pool
	// position, drawn once per federation; tierMasks maps each tier to its
	// mask; commLayout names each communicated tensor's group.
	tiers      []string
	tierMasks  map[string]tierMask
	commLayout []string

	// Uplink-codec wire simulation (cfg.Codec non-empty; see codec.go).
	// codecs holds one codec instance per client ID so topk's error-feedback
	// residuals stay per-client.
	codecs map[int]comm.Codec

	// prog lives on the runner (not in Run) so that a checkpoint taken
	// mid-run captures it and a restored runner continues it. Its tracker
	// feeds client-level feedback (mean EDS entropy, or train loss as a
	// fallback) from each round back into the cohort scheduler.
	prog Progress
	// startRound is the last completed round a restored runner resumes
	// after; 0 for a fresh run. doneRound tracks the last completed round
	// while Run executes (what Snapshot reports). restored marks that
	// RestoreInto installed run state which Run must continue, not reset.
	startRound int
	doneRound  int
	restored   bool
}

// NewRunner validates the configuration and constructs a runner. The global
// model is used in place (its state after Run is the trained model).
func NewRunner(cfg Config, global *models.Model, clients []*Client, test *data.Dataset) (*Runner, error) {
	for _, cl := range clients {
		if cl.Data == nil {
			return nil, fmt.Errorf("%w: client %d has no data", ErrConfig, cl.ID)
		}
	}
	r, err := NewRunnerWithSource(cfg, global, eagerSource{clients: clients}, test)
	if err != nil {
		return nil, err
	}
	r.clients = clients
	return r, nil
}

// GlobalModel returns the (live) global model.
func (r *Runner) GlobalModel() *models.Model { return r.global }

// prepareRun is the loop's preamble: reset the per-run state (unless
// RestoreInto armed a continuation), freeze the non-finetuned part, resolve
// the communicated groups, tensors and wire size once, set up tiers, and
// project every client's round cost and candidate row from descriptors alone.
func (r *Runner) prepareRun() error {
	if r.restored {
		// RestoreInto armed this run to continue after startRound; consume
		// the arming so any later run on the same runner starts fresh (the
		// legacy re-run semantics) instead of appending duplicate rounds.
		r.restored = false
	} else {
		r.prog = Progress{Tracker: sched.NewTracker()}
		r.startRound, r.doneRound = 0, 0
	}
	r.evalSet = nil
	// The paper's FedFT freezes the lower part on the *server's* model too:
	// group states that never train are never communicated.
	if err := r.global.SetFinetunePart(r.cfg.FinetunePart); err != nil {
		return err
	}
	r.commGroups = r.global.TrainableGroupNames()
	// The communicated tensors are live views into the global model and the
	// groups never change during a run, so they are resolved once here
	// instead of once per round in the fold.
	commState, err := r.global.GroupStateTensors(r.commGroups)
	if err != nil {
		return err
	}
	r.commState, r.stateSize = commState, 0
	for _, t := range commState {
		r.stateSize += int64(t.EncodedSize())
	}
	if err := r.setupTiers(); err != nil {
		return err
	}
	return r.cacheProjectedCosts()
}

// recordRound closes one round from what its folded updates reported: it
// evaluates on the EvalEvery cadence and records the round.
func (r *Runner) recordRound(round, cohortSize int, sum comm.RoundSum) error {
	rec := RoundRecord{
		Round:         round,
		CohortSize:    cohortSize,
		Participants:  sum.Updates,
		TestAccuracy:  math.NaN(),
		MeanTrainLoss: sum.LossSum / float64(sum.Updates),
		SchedPolicy:   r.schedName(),
	}
	if r.cfg.EvalEvery > 0 && (round%r.cfg.EvalEvery == 0 || round == r.cfg.Rounds) {
		acc, err := r.evaluate()
		if err != nil {
			return fmt.Errorf("core: eval round %d: %w", round, err)
		}
		rec.TestAccuracy = acc
	}
	r.prog.Record(rec)
	r.doneRound = round
	return nil
}

// evaluate returns the global model's test accuracy, running the test set
// through the frozen prefix only on the run's first evaluation.
func (r *Runner) evaluate() (float64, error) {
	if r.evalSet == nil {
		p := r.global.FrozenDepth()
		set, err := r.testFeats.of(r.global, p, r.test)
		if err != nil {
			return 0, err
		}
		r.evalHead, r.evalSet = r.global.From(p), set
	}
	return metrics.Accuracy(r.evalHead, r.evalSet)
}

// schedName names the configured cohort scheduler; empty without one.
func (r *Runner) schedName() string {
	if r.cfg.Scheduler == nil {
		return ""
	}
	return r.cfg.Scheduler.Name()
}

// tierMask is one tier's partial-training mask, resolved once per run: the
// layer groups it trains, their live tensors in the global model — the
// broadcast values a client of the tier encodes its update against, as
// federation.Client does — and the wire size of the state it ships.
type tierMask struct {
	groups []string
	ref    []*tensor.Tensor
	uplink int64
}

// setupTiers resolves the run's partial-training state: the per-pool-position
// tier assignment, each tier's mask (TierMask's groups and their tensors), and
// the tensor→group layout the per-layer aggregation filters by. Untiered runs
// clear everything: every update then covers every communicated tensor.
// Called once per Run, after the finetune part is applied.
func (r *Runner) setupTiers() error {
	r.tiers, r.tierMasks, r.commLayout = nil, nil, nil
	if r.cfg.TierDist == nil {
		return nil
	}
	layout, err := r.global.GroupStateLayout(r.commGroups)
	if err != nil {
		return err
	}
	r.commLayout = layout
	r.tiers = r.cfg.TierDist.Assign(r.src.NumClients(), r.cfg.Seed)
	r.tierMasks = make(map[string]tierMask, len(r.cfg.TierDist.Tiers()))
	for _, tier := range r.cfg.TierDist.Tiers() {
		groups, err := TierMask(r.global, tier, r.commGroups)
		if err != nil {
			return err
		}
		ref, err := r.global.GroupStateTensors(groups)
		if err != nil {
			return err
		}
		tm := tierMask{groups: groups, ref: ref}
		for _, t := range ref {
			tm.uplink += int64(t.EncodedSize())
		}
		r.tierMasks[tier] = tm
	}
	return nil
}

// TierMask resolves a capability tier to the layer groups a client of that
// tier trains and ships: the profile's affordable top suffix of the model's
// groups, by per-group training FLOPs, narrowed to the groups the server
// communicates. Both are top suffixes of the canonical group list, so the
// result is the shorter suffix, in bottom-to-top order, and never empty
// (both always contain the classifier). The simulator and the distributed
// client derive their masks here, so a client and its simulated twin agree.
func TierMask(global *models.Model, tier string, commGroups []string) ([]string, error) {
	prof, err := device.Lookup(tier)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	perGroup, _ := global.GroupFLOPs()
	mask, err := prof.MaskFor(models.GroupNames(), perGroup)
	if err != nil {
		return nil, fmt.Errorf("core: tier %s: %w", tier, err)
	}
	mask = intersectGroups(mask, commGroups)
	if len(mask) == 0 {
		return nil, fmt.Errorf("%w: tier %s affords none of the communicated groups %v",
			ErrConfig, tier, commGroups)
	}
	return mask, nil
}

// intersectGroups filters want down to the members of have, preserving
// want's order.
func intersectGroups(want, have []string) []string {
	out := make([]string, 0, len(want))
	for _, g := range want {
		if slices.Contains(have, g) {
			out = append(out, g)
		}
	}
	return out
}

// resolveMask settles, before a participant trains, what its update will
// carry: its tier's layer mask, the broadcast tensors of that mask and its
// uplink size. On untiered runs there is no mask: the client trains and ships
// the whole communicated state.
func (r *Runner) resolveMask(fl *flight, pos int) {
	fl.mask, fl.ref, fl.res.uplink = nil, r.commState, r.stateSize
	if r.tiers != nil {
		tm := r.tierMasks[r.tiers[pos]]
		fl.mask, fl.ref, fl.res.uplink = tm.groups, tm.ref, tm.uplink
	}
}

// cacheProjectedCosts fills projCost with each client's projected round cost
// and, with a scheduler, the run's candidate table (Runner.cands), stamped
// from the utility tracker — which a resumed run has already restored.
// Called once per run, after SetFinetunePart and setupTiers (the cost
// depends on which groups the client's mask lets train). Both come from
// descriptors alone — the source contract pins Describe to what Acquire
// materializes, so the eager and fleet paths project identical costs.
// Candidates are keyed by pool position, the key the straggler policy and
// the tracker use.
func (r *Runner) cacheProjectedCosts() error {
	n := r.src.NumClients()
	r.projCost = make([]float64, n)
	r.cands = nil
	if r.cfg.Scheduler != nil {
		r.cands = make([]sched.Candidate, n)
	}
	for i := 0; i < n; i++ {
		d := r.src.Describe(i)
		var (
			cost simtime.RoundCost
			err  error
		)
		if r.tiers != nil {
			cost, err = simtime.ClientRoundCostFor(r.global, r.tierMasks[r.tiers[i]].groups, d.Device,
				d.DataSize, projectedSelected(d.DataSize, r.cfg.SelectFraction),
				r.cfg.LocalEpochs, r.cfg.Selector.ScoringPasses())
		} else {
			cost, err = simtime.ClientRoundCost(r.global, d.Device,
				d.DataSize, projectedSelected(d.DataSize, r.cfg.SelectFraction),
				r.cfg.LocalEpochs, r.cfg.Selector.ScoringPasses())
		}
		if err != nil {
			return fmt.Errorf("core: projecting cost for client %d: %w", i, err)
		}
		r.projCost[i] = cost.Total()
		if r.cands != nil {
			r.cands[i] = sched.Candidate{
				ClientID:         i,
				DataSize:         d.DataSize,
				ProjectedSeconds: r.projCost[i],
				Available:        true,
				Cluster:          d.Cluster,
			}
			if r.tiers != nil {
				r.cands[i].Tier = r.tiers[i]
			}
		}
	}
	if r.cands != nil {
		r.prog.Tracker.Stamp(r.cands)
	}
	return nil
}

// schedule asks the configured scheduler for k of cands, which it must not
// write (see sched.Scheduler).
func (r *Runner) schedule(round, k int, cands []sched.Candidate) []int {
	if len(cands) == 0 {
		return nil
	}
	srng := tensor.NewRand(uint64(r.cfg.Seed), uint64(round), sched.StreamTag)
	return r.cfg.Scheduler.Schedule(round, cands, k, srng)
}

// projectedSelected mirrors the selector's targetCount for cost projection.
func projectedSelected(n int, fraction float64) int {
	k := int(math.Ceil(fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// trainFlights runs one dispatch's local rounds on a bounded worker pool of
// reusable client replicas, each update landing in its flight (parallel to
// participants and their pool positions). Which worker trains which client
// does not matter: each replica is rebound bit-identically per client.
func (r *Runner) trainFlights(participants []*Client, positions []int, flights []*flight, round int) error {
	for i, fl := range flights {
		r.resolveMask(fl, positions[i])
	}
	n := len(participants)
	workers := min(r.cfg.Parallelism, n)
	for len(r.replicas) < workers {
		rep, err := newReplica(r.global, r.cfg, nil)
		if err != nil {
			return fmt.Errorf("core: replica: %w", err)
		}
		r.replicas = append(r.replicas, rep)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			for {
				slot := int(next.Add(1)) - 1
				if slot >= n {
					return
				}
				flights[slot].err = r.trainClient(rep, participants[slot], round, flights[slot])
			}
		}(r.replicas[w])
	}
	wg.Wait()
	for _, fl := range flights {
		if fl.err != nil {
			return fl.err
		}
	}
	return nil
}

// trainClient runs one participant's local round on the worker's pooled
// replica, rebound to the client (or, under the reuseReplicas test hook, on a
// fresh one-shot replica — the same loop either way). The outcome fills the
// flight; the wire size resolved at admission stays.
func (r *Runner) trainClient(rep *replica, cl *Client, round int, fl *flight) error {
	var err error
	if reuseReplicas {
		err = rep.rebind(r.global, fl.mask)
	} else {
		rep, err = newReplica(r.global, r.cfg, fl.mask)
	}
	if err != nil {
		return fmt.Errorf("core: client %d: %w", cl.ID, err)
	}
	res, err := rep.train(r.cfg, cl, round, &fl.stateBuf)
	res.uplink = fl.res.uplink
	fl.res = res
	return err
}
