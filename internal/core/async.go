package core

import (
	"fmt"
	"math"
	"sort"

	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// AsyncConfig shapes the buffered-asynchronous (FedBuff-style) simulator:
// every client trains continuously against the model version it last
// received, the server buffers finished updates as they arrive in simulated
// time, and aggregates as soon as Buffer of them are in hand — discounting
// each update by its staleness (how many aggregations the global model has
// advanced since the update's base version was dispatched).
type AsyncConfig struct {
	// Buffer is M, the number of buffered updates that triggers an
	// aggregation. Buffer = pool size with the identity weigher degenerates
	// to the synchronous engine (bit for bit — see RunAsync).
	Buffer int
	// MaxStaleness discards updates staler than this many versions instead
	// of folding them; the discarded client immediately receives the current
	// model. Negative means unlimited (nothing is discarded).
	MaxStaleness int
	// Weigher maps staleness to the discount multiplied into the strategy's
	// aggregation weight. Nil means identity (no discount).
	Weigher strategy.StalenessWeigher
}

// RunAsync executes Config.Rounds buffered-asynchronous aggregations over a
// simulated-time event queue and returns the history (one record per
// aggregation). Clients overlap: each trains for its projected round cost in
// simulated seconds, reports, and is handed the then-current model at the
// next aggregation boundary (or immediately, when its update was discarded
// as too stale). It is the full-window, unscheduled case of the buffered
// loop RunFleetAsync runs: every client is always in flight, so the clients
// refilled after an aggregation are exactly the ones it folded. Updates fold
// in ascending client order within each buffer, the synchronous engine's
// participant order, so Buffer = pool size with the identity weigher replays
// Run bit for bit: every client then trains each version exactly once and
// the buffer fills exactly when the round would have ended.
//
// Async mode replaces the admission machinery wholesale, so RunAsync rejects
// cohort scheduling, straggler policies, tiered partial training and
// in-simulator checkpointing (warm restarts of async state live in the
// distributed server).
func (r *Runner) RunAsync(acfg AsyncConfig) (History, error) {
	if r.clients == nil {
		return History{}, fmt.Errorf("%w: RunAsync keeps every client's update in flight, which is "+
			"O(pool) memory; fleet-backed runners overlap rounds with RunFleetAsync instead", ErrConfig)
	}
	if r.cfg.Scheduler != nil || r.cfg.CohortSize > 0 {
		return History{}, fmt.Errorf("%w: cohort scheduling and RunAsync's whole-pool dispatch are mutually "+
			"exclusive — the buffer is the admission policy; RunFleetAsync schedules an in-flight window", ErrConfig)
	}
	return r.runBuffered(FleetAsyncConfig{AsyncConfig: acfg}, len(r.clients))
}

// FleetAsyncConfig shapes the fleet-backed buffered-asynchronous simulator:
// RunAsync's FedBuff semantics, but with a scheduler-driven in-flight window
// of Config.CohortSize clients instead of the whole population, so the
// engine's working set stays O(cohort) over a million-client fleet.
type FleetAsyncConfig struct {
	AsyncConfig
	// Departed, when non-nil, reports that a client left the fleet before
	// its update for the given aggregation arrived. The update is dropped —
	// its compute is accounted (the client did train) but nothing is
	// uplinked — and the vacated slot is refilled by the scheduler at the
	// next aggregation boundary.
	Departed func(round, clientID int) bool
}

// RunFleetAsync executes Config.Rounds buffered-asynchronous aggregations
// over a client source, keeping only Config.CohortSize clients in flight:
// the scheduler admits clients into the window, each trains for its projected
// cost in simulated time, and the server aggregates whenever Buffer updates
// are in hand, discounting by staleness exactly as RunAsync does. Folded (and
// departed) slots are refilled by the scheduler — over the candidates not
// currently in flight — at the next aggregation boundary, which is where
// trace-driven availability and cluster-stratified sampling plug in.
//
// With Buffer = CohortSize, no departures and no staleness discards, every
// aggregation folds exactly the window it dispatched, so the run replays the
// synchronous fleet Run bit for bit (TestFleetAsyncFullBufferMatchesRun).
//
// Like RunAsync, this mode replaces the admission machinery wholesale: it
// rejects straggler policies, tiers, codecs and in-simulator checkpointing —
// but unlike RunAsync it REQUIRES a scheduler and cohort size (the window is
// the whole point; a window of the full population is RunAsync's job).
func (r *Runner) RunFleetAsync(acfg FleetAsyncConfig) (History, error) {
	window := r.cfg.CohortSize
	switch {
	case r.cfg.Scheduler == nil || window <= 0:
		return History{}, fmt.Errorf("%w: RunFleetAsync needs a scheduler and CohortSize — the "+
			"scheduled window is its admission policy", ErrConfig)
	case window > r.src.NumClients():
		return History{}, fmt.Errorf("%w: in-flight window %d exceeds the %d-client fleet",
			ErrConfig, window, r.src.NumClients())
	}
	return r.runBuffered(acfg, window)
}

// runBuffered is the one buffered-asynchronous loop: a simtime event queue
// over window clients in flight, an aggregation whenever acfg.Buffer updates
// are in hand, and a refill of the vacated slots at every aggregation
// boundary — through the scheduler when one is configured, else with every
// idle client (RunAsync, whose window is the whole pool).
func (r *Runner) runBuffered(acfg FleetAsyncConfig, window int) (History, error) {
	switch {
	case r.restored:
		return History{}, fmt.Errorf("%w: the async simulator does not resume from checkpoints; "+
			"checkpointed runs use the synchronous engine or the distributed server", ErrConfig)
	case r.cfg.TierDist != nil:
		return History{}, fmt.Errorf("%w: tiered partial training is synchronous-only; drop TierDist "+
			"for async runs", ErrConfig)
	case r.cfg.CheckpointEvery > 0:
		return History{}, fmt.Errorf("%w: the async simulator does not checkpoint; checkpointed runs "+
			"use the synchronous engine or the distributed server", ErrConfig)
	case r.cfg.Codec != "":
		return History{}, fmt.Errorf("%w: the async simulator does not simulate uplink codecs; drop "+
			"Codec for async runs (the distributed server supports reference-free codecs with -buffer)", ErrConfig)
	case acfg.Buffer < 1 || acfg.Buffer > window:
		return History{}, fmt.Errorf("%w: async buffer %d must lie in [1, %d] — a larger buffer could "+
			"never fill from the clients in flight", ErrConfig, acfg.Buffer, window)
	}
	if _, ok := r.cfg.Straggler.(simtime.FullParticipation); !ok {
		return History{}, fmt.Errorf("%w: straggler policies do not apply in async mode — slow clients "+
			"go stale instead of dropping out", ErrConfig)
	}
	if r.maskProvider() != nil {
		return History{}, fmt.Errorf("%w: strategy %s provides per-client masks, which are "+
			"synchronous-only", ErrConfig, r.strat.Name())
	}
	weigher := acfg.Weigher
	if weigher == nil {
		weigher = strategy.IdentityStaleness()
	}
	stateSize, err := r.prepareRun()
	if err != nil {
		return r.hist, err
	}

	// In-flight state is keyed by pool position and bounded by the window:
	// the buffered update (in owned tensors from a free list), and the model
	// version it trained against.
	type flight struct {
		res     clientResult
		version int
	}
	n := r.src.NumClients()
	pend := make(map[int]*flight, window)
	var bufFree [][]*tensor.Tensor
	var q simtime.EventQueue
	now := 0.0
	version := 0

	// pick chooses k clients among those not in flight — a client cannot
	// train two models at once. Without a scheduler every idle client is
	// picked: k is then exactly their number, because the window is the
	// whole pool.
	var idle []int
	pick := func(round, k int) []int {
		if r.cfg.Scheduler != nil {
			return r.schedule(round, k, func(pos int) bool { return pend[pos] != nil })
		}
		idle = idle[:0]
		for i := 0; i < n; i++ {
			if pend[i] == nil {
				idle = append(idle, i)
			}
		}
		return idle
	}

	// dispatch trains positions against the current model version and queues
	// each finished update at its simulated arrival time. trainParticipants
	// reuses its state buffers across calls, so each update is copied into
	// tensors the flight owns until it is folded or dropped.
	dispatch := func(positions []int, round int, at float64) error {
		if len(positions) == 0 {
			return nil
		}
		sort.Ints(positions)
		parts, err := r.src.Acquire(positions, r.partScratch)
		if err != nil {
			return fmt.Errorf("core: acquiring aggregation %d dispatch: %w", round, err)
		}
		r.partScratch = parts
		results, err := r.trainParticipants(parts, round)
		r.src.Release(parts)
		if err != nil {
			return err
		}
		for i, pos := range positions {
			res := results[i]
			var bufs []*tensor.Tensor
			if len(bufFree) > 0 {
				bufs = bufFree[len(bufFree)-1]
				bufFree = bufFree[:len(bufFree)-1]
			}
			res.state = snapshotState(bufs, res.state)
			pend[pos] = &flight{res: res, version: version}
			q.Push(simtime.Event{Time: at + r.projCost[pos], ID: pos})
		}
		return nil
	}
	// drop retires an in-flight update — folded, stale or departed —
	// recycling its tensors.
	drop := func(pos int) {
		bufFree = append(bufFree, pend[pos].res.state)
		delete(pend, pos)
	}

	initial := pick(1, window)
	if len(initial) == 0 {
		return r.hist, fmt.Errorf("core: scheduler %s admitted no clients into the initial window",
			r.cfg.Scheduler.Name())
	}
	if err := dispatch(initial, 1, now); err != nil {
		return r.hist, err
	}

	var (
		foldedPos []int
		aggRes    []clientResult
		aggLam    []float64
		redisp    []int
	)
	for agg := 1; agg <= r.cfg.Rounds; agg++ {
		foldedPos = foldedPos[:0]
		dropped := 0
		for len(foldedPos) < acfg.Buffer {
			ev, ok := q.Pop()
			if !ok {
				return r.hist, fmt.Errorf("core: async aggregation %d starved with %d/%d updates "+
					"buffered and %d clients in flight", agg, len(foldedPos), acfg.Buffer, len(pend))
			}
			now = ev.Time
			fl, ok := pend[ev.ID]
			if !ok {
				return r.hist, fmt.Errorf("core: arrival event for position %d with no in-flight update", ev.ID)
			}
			switch {
			case acfg.Departed != nil && acfg.Departed(agg, fl.res.clientID):
				// The client trained but left before uploading: account the
				// compute, drop the update, free the slot for the next refill.
				r.acct.AddRound(fl.res.cost)
				dropped++
				drop(ev.ID)
			case acfg.MaxStaleness >= 0 && version-fl.version > acfg.MaxStaleness:
				// Computed and uplinked regardless; count the work, drop the
				// update, and hand the client the current model right away.
				r.acct.AddRound(fl.res.cost)
				r.acct.AddCommunication(stateSize, stateSize)
				dropped++
				drop(ev.ID)
				redisp = append(redisp[:0], ev.ID)
				if err := dispatch(redisp, agg, now); err != nil {
					return r.hist, err
				}
			default:
				foldedPos = append(foldedPos, ev.ID)
			}
		}

		// Fold in ascending position — the synchronous engine's participant
		// order, not arrival order — so a full-buffer window replays Run's
		// arithmetic exactly.
		sort.Ints(foldedPos)
		aggRes, aggLam = aggRes[:0], aggLam[:0]
		for _, pos := range foldedPos {
			fl := pend[pos]
			s := version - fl.version
			lam := weigher.Weight(s)
			if lam <= 0 || math.IsNaN(lam) || math.IsInf(lam, 0) {
				return r.hist, fmt.Errorf("core: staleness weigher %s returned %v for staleness %d",
					weigher.Name(), lam, s)
			}
			aggRes = append(aggRes, fl.res)
			aggLam = append(aggLam, lam)
		}
		if err := r.aggregate(aggRes, r.commState, aggLam); err != nil {
			return r.hist, err
		}
		version++
		for _, pos := range foldedPos {
			drop(pos)
		}
		if err := r.recordRound(agg, len(aggRes)+dropped, aggRes, foldedPos, stateSize); err != nil {
			return r.hist, err
		}

		// Refill the window back to size — through the scheduler, which is
		// where trace availability decides who is reachable and cluster
		// sampling keeps the mix stratified. After the final aggregation
		// there is nothing left to train for.
		if need := window - len(pend); need > 0 && agg < r.cfg.Rounds {
			if err := dispatch(pick(agg+1, need), agg+1, now); err != nil {
				return r.hist, err
			}
		}
	}
	return r.finishRun(), nil
}
