package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fedfteds/internal/comm"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// AsyncConfig shapes how far the simulator loop lets rounds overlap
// (FedBuff-style): every dispatched client trains against the model version
// it was handed, its update arrives after its projected round cost in
// simulated time, and the server aggregates as soon as Buffer arrived updates
// are in hand — discounting each by its staleness (how many aggregations the
// global model advanced since the update was dispatched).
type AsyncConfig struct {
	// Buffer is M, the number of arrived updates that triggers an
	// aggregation, in [0, window]; the window is Config.CohortSize when a
	// scheduler picks the cohort and the whole pool otherwise. Zero is the
	// synchronous round, and so is Buffer equal to the window: nothing stays
	// in flight.
	Buffer int
	// MaxStaleness discards updates staler than this many versions instead
	// of folding them; the discarded client immediately receives the current
	// model. Negative means unlimited (nothing is discarded). A synchronous
	// run ignores it.
	MaxStaleness int
	// Weigher maps staleness to the discount multiplied into the strategy's
	// aggregation weight. Nil means identity (no discount), as does a
	// synchronous run.
	Weigher strategy.StalenessWeigher
}

// Run executes Config.Rounds aggregations of the simulator loop and returns
// the history, one record per aggregation. Without Config.Async's buffer
// every dispatched client is awaited before each aggregation. With a buffer
// below the window clients overlap: an update that arrives after the model
// has moved on folds with a staleness discount (or is discarded past
// MaxStaleness), and the slots an aggregation vacated are refilled at its
// boundary. On a runner restored from a checkpoint (RestoreInto), Run
// continues after the checkpointed round instead of starting over; the
// resulting History and final global state are bit-identical to an
// uninterrupted run's. When Config.CheckpointDir is set, a checkpoint is
// written every Config.CheckpointEvery rounds and always after the final
// round.
func (r *Runner) Run() (History, error) {
	acfg := r.cfg.Async
	if acfg.Buffer == 0 {
		acfg = AsyncConfig{Buffer: r.window(), MaxStaleness: -1}
	}
	return r.runRounds(acfg)
}

// window is how many clients the loop keeps in flight: the cohort when a
// scheduler picks one, else the whole pool.
func (r *Runner) window() int {
	n := r.src.NumClients()
	if r.cfg.Scheduler != nil && r.cfg.CohortSize > 0 && r.cfg.CohortSize < n {
		return r.cfg.CohortSize
	}
	return n
}

// flight is one dispatched update, from admission until its round ends (it is
// folded, discarded as stale, or refused). It owns the tensors the training
// worker snapshots into and the codec decodes into, so an update outlives the
// dispatch that produced it without a copy; retired flights are reused with
// their tensors.
type flight struct {
	res clientResult
	// version is the model version the client trained against.
	version int
	// mask is the layer mask the client trains under; nil trains the whole
	// communicated state. ref holds the live broadcast tensors of the groups
	// it ships, which its codec encodes against.
	mask             []string
	ref              []*tensor.Tensor
	stateBuf, decBuf []*tensor.Tensor
	err              error
}

// roundLoop is the state of one run of the simulator loop.
type roundLoop struct {
	r      *Runner
	window int
	// pend holds the in-flight updates by pool position — a client cannot
	// train two models at once — and free the retired ones.
	pend map[int]*flight
	free []*flight
	q    simtime.EventQueue
	// now is the simulated time of the last arrival, version the number of
	// aggregations applied so far.
	now     float64
	version int
	// ended counts the updates whose round ended without a fold since the
	// last record: straggler-dropped, stale-discarded, refused.
	ended int
	// agg is the run's one fold, the aggregator Serve folds through, and
	// refused what it turned down since the last record.
	agg     *comm.StreamAggregator
	refused []error
	// Scratch, rebuilt in place: the cohort the loop builds itself, the
	// cohort's projected times, the flights of the current dispatch, and the
	// positions a dispatch has seen (true once the straggler policy kept it).
	cohort []int
	times  []float64
	batch  []*flight
	seen   map[int]bool
}

func (r *Runner) newLoop() *roundLoop {
	l := &roundLoop{r: r, window: r.window()}
	l.pend = make(map[int]*flight, l.window)
	l.seen = make(map[int]bool, l.window)
	return l
}

// runRounds is the simulator's one round loop. Every round refills the window
// (pick, straggler policy, acquire, train, codec round trip — see dispatch),
// pops arrivals in simulated time until acfg.Buffer updates are in hand or
// nothing is left in flight, folds them in ascending pool position, records
// the round and checkpoints. The synchronous round is the case where the
// buffer is the window: everything dispatched is awaited, so every staleness
// is zero and nothing is in flight at the round boundary.
func (r *Runner) runRounds(acfg AsyncConfig) (History, error) {
	l := r.newLoop()
	switch {
	case acfg.Buffer < 1 || acfg.Buffer > l.window:
		return History{}, fmt.Errorf("%w: buffer %d must lie in [0, %d] — a larger buffer could "+
			"never fill from the clients in flight", ErrConfig, acfg.Buffer, l.window)
	case acfg.Buffer < l.window && (r.restored || r.cfg.CheckpointEvery > 0):
		return History{}, fmt.Errorf("%w: buffer %d of a window of %d leaves updates in flight at every "+
			"aggregation and the checkpoint format has no section for them; checkpointed and resumed "+
			"runs await the whole window", ErrConfig, acfg.Buffer, l.window)
	}
	if err := r.prepareRun(); err != nil {
		return r.prog.Hist, err
	}
	if err := l.newFold(acfg.Weigher); err != nil {
		return r.prog.Hist, err
	}

	var arrived []int
	for round := r.startRound + 1; round <= r.cfg.Rounds; round++ {
		// Refill the window — through the scheduler, which is where trace
		// availability decides who is reachable and cluster sampling keeps
		// the mix stratified.
		if need := l.window - len(l.pend); need > 0 {
			if err := l.dispatch(l.pick(round, need), round); err != nil {
				return r.prog.Hist, err
			}
		}
		arrived = arrived[:0]
		for len(arrived) < acfg.Buffer {
			ev, ok := l.q.Pop()
			if !ok {
				break
			}
			l.now = ev.Time
			fl := l.pend[ev.ID]
			switch {
			case acfg.MaxStaleness >= 0 && l.version-fl.version > acfg.MaxStaleness:
				// Computed and uplinked regardless; count the work, drop the
				// update, and hand the client the current model right away.
				r.prog.Acct.AddRound(fl.res.cost)
				r.prog.Acct.AddCommunication(fl.res.uplink, r.stateSize)
				l.retire(ev.ID)
				l.ended++
				l.cohort = append(l.cohort[:0], ev.ID)
				if err := l.dispatch(l.cohort, round); err != nil {
					return r.prog.Hist, err
				}
			default:
				arrived = append(arrived, ev.ID)
			}
		}

		// Fold in ascending position, not arrival order, so the result does
		// not depend on device speeds or on the order a policy listed its
		// cohort in. Every arrived update was computed and uplinked; one the
		// fold refuses (a diverged client's non-finite state or loss) ends its
		// round unfolded and stays out of the scheduler's feedback.
		slices.Sort(arrived)
		for _, pos := range arrived {
			fl := l.pend[pos]
			r.prog.Acct.AddRound(fl.res.cost)
			r.prog.Acct.AddCommunication(fl.res.uplink, r.stateSize)
			if err := l.add(pos); err != nil {
				l.ended++
				l.refused = append(l.refused, err)
			} else {
				r.prog.Tracker.ObserveUpdate(pos, fl.res.meanEntropy, fl.res.trainLoss, fl.res.cost.Total())
				if r.cands != nil {
					r.prog.Tracker.Stamp(r.cands[pos : pos+1])
				}
			}
			l.retire(pos)
		}
		sum := l.agg.Sum()
		if sum.Updates == 0 {
			return r.prog.Hist, errors.Join(append([]error{fmt.Errorf("core: round %d: no update arrived to fold "+
				"and none is in flight (%d ended unfolded: straggler-dropped, stale or refused)",
				round, l.ended)}, l.refused...)...)
		}
		fused, err := l.agg.Finish()
		if err != nil {
			return r.prog.Hist, err
		}
		if err := r.strat.ApplyAggregate(r.commState, fused); err != nil {
			return r.prog.Hist, fmt.Errorf("core: strategy %s: %w", r.strat.Name(), err)
		}
		l.version++
		if err := r.recordRound(round, sum.Updates+l.ended, sum); err != nil {
			return r.prog.Hist, err
		}
		l.ended, l.refused = 0, l.refused[:0]
		if r.cfg.CheckpointEvery > 0 && (round%r.cfg.CheckpointEvery == 0 || round == r.cfg.Rounds) {
			if _, err := r.SaveCheckpoint(r.cfg.CheckpointDir); err != nil {
				return r.prog.Hist, fmt.Errorf("core: checkpoint round %d: %w", round, err)
			}
		}
	}
	return r.prog.Finish(), nil
}

// pick chooses up to k clients among those not in flight: the scheduler's
// cohort when one is configured, else every idle client (k is then exactly
// their number, because the window is the whole pool). With nothing in
// flight — every synchronous round — the scheduler reads the run's candidate
// table as it is. A buffered round copies the idle rows out instead: in-flight
// clients are left out, not flagged unavailable, because Markov churn draws
// once per candidate it is handed.
func (l *roundLoop) pick(round, k int) []int {
	r := l.r
	if r.cfg.Scheduler != nil {
		if len(l.pend) == 0 {
			return r.schedule(round, k, r.cands)
		}
		idle := r.candScratch[:0]
		for pos := range r.cands {
			if l.pend[pos] == nil {
				idle = append(idle, r.cands[pos])
			}
		}
		r.candScratch = idle
		return r.schedule(round, k, idle)
	}
	l.cohort = l.cohort[:0]
	for pos, n := 0, r.src.NumClients(); pos < n; pos++ {
		if l.pend[pos] == nil {
			l.cohort = append(l.cohort, pos)
		}
	}
	return l.cohort
}

// admit turns a picked cohort into one dispatch's participants. It checks
// what the plug-ins hand it before anything is pinned or trained — every
// picked position in range, none repeated, none already in flight; every
// position the straggler policy keeps a member of the cohort, none repeated —
// applies the straggler policy once, and acquires the survivors in ascending
// position. The dropped stragglers' rounds end here.
func (l *roundLoop) admit(cohort []int, round int) ([]*Client, []int, error) {
	r, n := l.r, l.r.src.NumClients()
	clear(l.seen)
	l.times = l.times[:0]
	for _, pos := range cohort {
		_, repeated := l.seen[pos]
		if pos < 0 || pos >= n || repeated || l.pend[pos] != nil {
			return nil, nil, fmt.Errorf("%w: scheduler %q picked position %d in round %d: outside the "+
				"%d-client pool, repeated, or already in flight", ErrConfig, r.schedName(), pos, round, n)
		}
		l.seen[pos] = false
		l.times = append(l.times, r.projCost[pos])
	}
	rng := tensor.NewRand(uint64(r.cfg.Seed), uint64(round), 0xFACADE)
	chosen := r.cfg.Straggler.Complete(cohort, l.times, rng)
	for _, pos := range chosen {
		if kept, picked := l.seen[pos]; !picked || kept {
			return nil, nil, fmt.Errorf("%w: straggler policy %T kept position %d in round %d: outside "+
				"its cohort, or repeated", ErrConfig, r.cfg.Straggler, pos, round)
		}
		l.seen[pos] = true
	}
	l.ended += len(cohort) - len(chosen)
	slices.Sort(chosen)
	parts, err := r.src.Acquire(chosen, r.partScratch)
	if err != nil {
		return nil, nil, fmt.Errorf("core: acquiring round %d participants: %w", round, err)
	}
	r.partScratch = parts
	return parts, chosen, nil
}

// dispatch admits a cohort and trains it against the current model version:
// each participant's mask is resolved, its update trained into a flight's own
// tensors and — when a codec is configured — encoded and decoded against the
// broadcast state it trained from, then queued at its simulated arrival time.
// Training is done when dispatch returns, so the participants' datasets are
// released at once — this is what keeps fleet runs O(cohort) resident.
func (l *roundLoop) dispatch(cohort []int, round int) error {
	parts, chosen, err := l.admit(cohort, round)
	if err != nil || len(chosen) == 0 {
		return err
	}
	r := l.r
	l.batch = l.batch[:0]
	for range chosen {
		var fl *flight
		if n := len(l.free); n > 0 {
			fl, l.free = l.free[n-1], l.free[:n-1]
		} else {
			fl = &flight{}
		}
		fl.version = l.version
		l.batch = append(l.batch, fl)
	}
	err = r.trainFlights(parts, chosen, l.batch, round)
	r.src.Release(parts)
	if err != nil {
		return err
	}
	for i, pos := range chosen {
		if err := r.codecRoundTrip(l.batch[i], round); err != nil {
			return err
		}
		l.pend[pos] = l.batch[i]
		l.q.Push(simtime.Event{Time: l.now + r.projCost[pos], ID: pos})
	}
	return nil
}

// newFold builds the run's aggregator over the communicated layout (nil
// layout: every update ships the whole state), weighing each update exactly as
// Serve does. Its reference is the live global state: every update is checked
// against its shapes, and a tensor no update covered keeps its value. The
// codec round trip already happened at dispatch, against the broadcast each
// update trained from, so the fold decodes plain blobs.
func (l *roundLoop) newFold(stale strategy.StalenessWeigher) error {
	if stale == nil {
		stale = strategy.IdentityStaleness()
	}
	weigh := UpdateWeigher(l.r.strat, stale, func() int { return l.version },
		func(pos int) int { return l.pend[pos].res.localSize })
	agg, err := comm.NewMaskedStreamAggregator(weigh, l.r.commGroups, l.r.commLayout)
	if err != nil {
		return err
	}
	agg.SetCodec(nil, l.r.commState)
	l.agg = agg
	return nil
}

// add folds the in-flight update at pos: its state is encoded into the
// runner's one fold buffer (Add keeps none of it) and handed to the
// aggregator as the update its client would send, keyed by pool position.
func (l *roundLoop) add(pos int) error {
	r, fl := l.r, l.pend[pos]
	buf, err := comm.AppendTensors(r.foldBuf[:0], fl.res.state)
	if err != nil {
		return err
	}
	r.foldBuf = buf
	return l.agg.Add(comm.ClientUpdate{
		ClientID:     pos,
		Version:      fl.version,
		Groups:       fl.mask,
		State:        buf,
		NumSelected:  fl.res.numSelected,
		TrainSeconds: fl.res.cost.Total(),
		TrainLoss:    fl.res.trainLoss,
		MeanEntropy:  fl.res.meanEntropy,
	})
}

// UpdateWeigher is the fold weight of both runtimes: the strategy's
// WeighUpdates rule for one update, times the staleness discount
// λ(version() − u.Version). localSize reports |D_k| of the update's sender.
// Under strategy.IdentityStaleness λ is exactly 1.0, a float no-op, so a
// synchronous fold's weights are the strategy's bit for bit. The one-element
// scratch keeps the fold allocation-free.
func UpdateWeigher(strat strategy.Strategy, stale strategy.StalenessWeigher, version func() int,
	localSize func(clientID int) int) comm.WeightFunc {
	var (
		up [1]strategy.Update
		w  [1]float64
	)
	return func(u comm.ClientUpdate) (float64, error) {
		s := version() - u.Version
		lambda := stale.Weight(s)
		if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
			return 0, fmt.Errorf("%w: staleness weigher %s produced %v for staleness %d",
				comm.ErrProtocol, stale.Name(), lambda, s)
		}
		up[0] = strategy.Update{ClientID: u.ClientID, NumSelected: u.NumSelected, LocalSize: localSize(u.ClientID)}
		if err := strat.WeighUpdates(up[:], w[:]); err != nil {
			return 0, err
		}
		return w[0] * lambda, nil
	}
}

// retire ends an in-flight update's round — folded, stale or refused —
// and keeps its flight, tensors included, for the next dispatch.
func (l *roundLoop) retire(pos int) {
	l.free = append(l.free, l.pend[pos])
	delete(l.pend, pos)
}
