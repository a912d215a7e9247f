// Package federation spells out the distributed FedFT-EDS round once: Serve
// is the server loop cmd/fedserver runs (synchronous rounds, relay regions
// and buffered-asynchronous aggregation are admission rules of the same
// loop), and Client.Run is the client round cmd/fedclient answers it with.
// Examples and end-to-end tests call the same two entry points, so what they
// exercise is what the binaries ship.
package federation

import (
	"cmp"
	"errors"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/device"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// Config is one server run, as cmd/fedserver's flags validate it.
type Config struct {
	NumClients    int
	Rounds        int
	Fraction      float64 // selection fraction P_ds
	Epochs        int     // local epochs E
	Seed          int64
	RoundDeadline time.Duration
	Quorum        float64 // fraction of a round's clients in (0, 1]; 0 when MinUpdates rules
	MinUpdates    int     // absolute quorum; 0 in fractional mode
	Cohort        int
	Scheduler     sched.Scheduler // nil when Cohort is 0 (full pool)
	SchedName     string
	CkptDir       string
	Strat         strategy.Strategy
	TierDist      *device.Distribution // nil when untiered
	Relays        int                  // hierarchical mode: regions to accept; 0 = flat
	Buffer        int                  // async mode: aggregation buffer M; 0 = synchronous
	MaxStaleness  int
	Weigher       strategy.StalenessWeigher // nil outside async mode
	CodecName     string                    // canonical codec spec; "" for identity (legacy frames)
	Codec         comm.Codec                // decode instance; nil for identity
}

// TierSpec is the canonical tier-distribution rendering checkpoints record
// (empty when untiered).
func (c Config) TierSpec() string {
	if c.TierDist == nil {
		return ""
	}
	return c.TierDist.String()
}

// TaggedStrategy returns the strategy as checkpoints see it: nil for the
// default fedavg composition (whose checkpoints stay interchangeable with
// pre-strategy servers), the configured strategy otherwise.
func (c Config) TaggedStrategy() strategy.Strategy {
	if strategy.IsDefault(c.Strat) {
		return nil
	}
	return c.Strat
}

// ConfigTag fingerprints the settings that shape the federation's training
// trajectory, so a checkpoint written under one configuration is never
// silently continued under another (the same refusal Runner applies).
// Quorum and deadline are included: they decide which client updates enter
// each aggregate; a non-default strategy contributes its Fingerprint (the
// default fedavg contributes nothing, keeping pre-strategy checkpoints
// resumable). The checkpoint directory stays out — where the federation
// stores cannot change what it computes. TagConfig hashes each part's type
// and value, so the field types here are part of the checkpoint format.
func (c Config) ConfigTag() uint64 {
	parts := []any{c.NumClients, c.Fraction, c.Epochs, c.Cohort, c.SchedName,
		c.Quorum, c.RoundDeadline}
	if s := c.TaggedStrategy(); s != nil {
		parts = append(parts, s.Fingerprint())
	}
	// Absolute quorum and tier distribution are appended only when set, so
	// untiered fractional-quorum servers keep their pre-tier tags — and
	// their committed checkpoints — unchanged.
	if c.MinUpdates > 0 {
		parts = append(parts, fmt.Sprintf("minupdates:%d", c.MinUpdates))
	}
	if c.TierDist != nil {
		parts = append(parts, "tiers:"+c.TierDist.String())
	}
	// Hierarchical and async parts follow the same append-only rule: a relay
	// tree changes which peers the round contacts, and buffer/staleness decide
	// which updates enter each aggregate at what weight, so a checkpoint never
	// silently crosses the flat/relay or sync/async boundary.
	if c.Relays > 0 {
		parts = append(parts, fmt.Sprintf("relays:%d", c.Relays))
	}
	if c.Buffer > 0 {
		parts = append(parts, fmt.Sprintf("buffer:%d", c.Buffer), "staleness:"+c.Weigher.Name())
		if c.MaxStaleness >= 0 {
			parts = append(parts, fmt.Sprintf("maxstale:%d", c.MaxStaleness))
		}
	}
	// A lossy codec changes every update that enters the aggregate; identity
	// contributes nothing, so pre-codec checkpoints stay resumable.
	if c.CodecName != "" {
		parts = append(parts, "codec:"+c.CodecName)
	}
	return core.TagConfig(parts...)
}

// progress is what survives from one round to the next besides the model:
// the history, the cost accounting and the scheduler's feedback store.
type progress struct {
	hist    core.History
	acct    simtime.AccountantState
	tracker *sched.Tracker
}

// Serve drives one federation on an established listener: it accepts the
// configured participants, then for every round broadcasts the global
// model's trainable groups, streams the admitted updates into the
// strategy-weighted aggregate, applies it, evaluates on test and records the
// round in the History the in-process simulator also produces, so distributed
// and simulated runs are directly comparable. global must have its finetune
// part set. With CkptDir it snapshots after every round and warm-starts from
// the latest checkpoint, so a crashed-and-restarted server resumes the
// federation where it stopped (clients reconnect and follow the server's
// round numbering).
func Serve(cfg Config, l comm.Listener, global *models.Model, test *data.Dataset) (core.History, error) {
	commGroups := global.TrainableGroupNames()
	st := &progress{tracker: sched.NewTracker()}
	startRound := 0
	var restored *core.AsyncState
	if cfg.CkptDir != "" {
		var err error
		if startRound, restored, err = restore(cfg, global, st); err != nil {
			return st.hist, fmt.Errorf("warm-start from %s: %w", cfg.CkptDir, err)
		}
		if startRound > 0 {
			log.Printf("warm-start: resuming after round %d from %s", startRound, cfg.CkptDir)
		}
	}

	// In hierarchical mode the direct participants are the relay regions, not
	// the leaf clients they cover.
	participants, kind := cfg.NumClients, "clients"
	if cfg.Relays > 0 {
		participants, kind = cfg.Relays, fmt.Sprintf("relay regions covering %d clients", cfg.NumClients)
	}
	log.Printf("listening on %s, waiting for %d %s", l.Addr(), participants, kind)
	sess, err := comm.AcceptClientsCodec(l, participants, cfg.Rounds, cfg.CodecName)
	if err != nil {
		return st.hist, err
	}
	defer func() {
		if err := sess.Shutdown("done"); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	log.Printf("federation ready: clients %v, strategy %s, codec %s",
		sess.ClientIDs(), cfg.Strat.Fingerprint(), cmp.Or(cfg.CodecName, comm.CodecIdentity))

	// One engine runs every mode: cohort, quorum, deadline and buffer are its
	// answers to which of a round's dispatches get folded. restored, from a
	// checkpoint, carries its version counter and the updates that had arrived
	// but were not aggregated, so a restarted buffered server resumes without
	// losing them.
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{
		RoundDeadline: cfg.RoundDeadline, Quorum: cfg.Quorum, MinUpdates: cfg.MinUpdates,
		Buffer: cfg.Buffer, MaxStaleness: cfg.MaxStaleness})
	if err != nil {
		return st.hist, err
	}
	if restored != nil {
		if err := engine.Restore(restored.Version, restored.Buffer); err != nil {
			return st.hist, err
		}
	}
	if cfg.Buffer > 0 {
		log.Printf("async: buffer %d, staleness %s, model v%d, %d buffered updates",
			cfg.Buffer, cfg.Weigher.Name(), engine.Version(), len(engine.Buffered()))
	}
	// A relay region is a process worth restarting: keep the listener
	// admitting behind the round loop so a crashed relay re-registers and
	// rejoins at the next round boundary instead of shrinking the tree for
	// good.
	var admitter *comm.Admitter
	if cfg.Relays > 0 {
		if admitter, err = comm.NewAdmitterCodec(l, cfg.Relays, cfg.Rounds, cfg.CodecName); err != nil {
			return st.hist, err
		}
	}

	// The strategy weighs each streamed update (absorbing the fixed
	// selected-size weighting) and later applies the weighted average to the
	// global model through its server optimizer. lambda, the staleness
	// discount, is set by the fold immediately before the aggregator calls the
	// weigher (both run on this goroutine, never concurrently). A fresh
	// update's lambda is exactly 1.0, so the multiplication is a float no-op
	// and a full-buffer identity-weighed run stays bit-identical to the
	// synchronous one.
	lambda := 1.0
	weigh := updateWeigher(cfg.Strat, sess, &lambda)

	// One aggregator serves every round (Finish resets it). In tier mode
	// clients ship only the groups their capability affords, so it is built
	// over the layout and averages each tensor over exactly the clients that
	// covered it, uncovered tensors falling back to the current global state;
	// untiered updates cover everything. In relay mode the per-layer work
	// happens one tier down: each relay resolves its region's masks against
	// the broadcast Layout and forwards a full-layout delta, so the root
	// composes whole states even when the leaves are tiered.
	agg := comm.NewWeightedStreamAggregator(weigh)
	var bcastLayout []string
	if cfg.TierDist != nil {
		layout, err := global.GroupStateLayout(commGroups)
		if err != nil {
			return st.hist, err
		}
		if cfg.Relays > 0 {
			bcastLayout = layout
		} else if agg, err = comm.NewMaskedStreamAggregator(weigh, commGroups, layout); err != nil {
			return st.hist, err
		}
	}
	policy := ""
	if cfg.Scheduler != nil {
		policy = cfg.Scheduler.Name()
	}

	for round := startRound + 1; round <= cfg.Rounds; round++ {
		stateTs, err := global.GroupStateTensors(commGroups)
		if err != nil {
			return st.hist, err
		}
		blob, err := comm.EncodeTensors(stateTs)
		if err != nil {
			return st.hist, err
		}
		// Stream each update into the weighted sum as it arrives: the
		// server holds one decoded state at a time, O(state) not O(N·state).
		// The round's broadcast tensors (stateTs, still holding the broadcast
		// values until ApplyAggregate below) are what every update is
		// validated against, what a lossy codec decodes against, and what
		// uncovered tensors fall back to. Only reference-free codecs reach
		// async mode, so a stale update never decodes against them.
		agg.SetCodec(cfg.Codec, stateTs)
		// Seconds and loss are summed per round, from zero, before they join
		// the running totals: with two reporters the sum is then independent
		// of arrival order, which keeps resumed and uninterrupted histories
		// bit-identical.
		var roundSeconds, lossSum float64
		fold := func(u comm.ClientUpdate) error {
			// A rejected update is that client's failure and must leave
			// aggregate, history and scheduler untouched: every check runs
			// before the first side effect.
			if err := checkMetadata(u); err != nil {
				return err
			}
			if cfg.Buffer > 0 {
				s := engine.Version() - u.Version
				lambda = cfg.Weigher.Weight(s)
				if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
					return fmt.Errorf("%w: staleness weigher produced %v for staleness %d", comm.ErrProtocol, lambda, s)
				}
			}
			if err := agg.Add(u); err != nil {
				return err
			}
			roundSeconds += u.TrainSeconds
			st.acct.UplinkBytes += int64(len(u.State))
			st.acct.DownlinkBytes += int64(len(blob))
			lossSum += u.TrainLoss
			st.tracker.ObserveUpdate(u.ClientID, u.MeanEntropy, u.TrainLoss, u.TrainSeconds)
			return nil
		}
		// Fold in crashed-and-restarted relays at the round boundary, never
		// mid-round: the session map stays single-writer.
		if admitter != nil {
			if ids := admitter.Drain(sess); len(ids) > 0 {
				log.Printf("round %d: re-admitted relays %v", round, ids)
			}
		}
		// Schedule the round's cohort from the live participants; without a
		// scheduler the whole federation trains.
		live := sess.ClientIDs()
		cohort := live
		if cfg.Scheduler != nil {
			cohort = scheduleCohort(cfg, st.tracker, sess, round, live)
		}
		out, err := engine.RunCohort(comm.RoundStart{
			Round:          round,
			State:          blob,
			Groups:         commGroups,
			SelectFraction: cfg.Fraction,
			LocalEpochs:    cfg.Epochs,
			Layout:         bcastLayout,
		}, cohort, fold)
		// A timed-out client took at least the whole deadline; record that so
		// time-driven policies stop treating a hung client as instant.
		for _, id := range out.TimedOut {
			st.tracker.ObserveTimeout(id, cfg.RoundDeadline.Seconds())
		}
		logFailures(out)
		if err != nil {
			return st.hist, err
		}
		fused, err := agg.Finish()
		if err != nil {
			return st.hist, err
		}
		// stateTs are live views of the global model's groups — the
		// strategy's server optimizer folds the weighted average into them
		// (fedavg overwrites, exactly the pre-strategy behavior).
		if err := cfg.Strat.ApplyAggregate(stateTs, fused); err != nil {
			return st.hist, fmt.Errorf("strategy %s: round %d: %w", cfg.Strat.Name(), round, err)
		}

		acc, err := metrics.Accuracy(global, test)
		if err != nil {
			return st.hist, err
		}
		st.acct.TrainSeconds += roundSeconds
		// The recorded cohort is every dispatch that ended in the round: the
		// scheduled cohort when the round awaited it all, fewer under a buffer.
		ended := len(out.Reported) + out.Discarded + len(out.TimedOut) + len(out.Dropped)
		st.hist.Records = append(st.hist.Records, core.RoundRecord{
			Round:           round,
			CohortSize:      ended,
			SchedPolicy:     policy,
			Participants:    len(out.Reported),
			TestAccuracy:    acc,
			MeanTrainLoss:   lossSum / float64(len(out.Reported)),
			CumTrainSeconds: st.acct.TrainSeconds,
			CumUplinkBytes:  st.acct.UplinkBytes,
		})
		if acc > st.hist.BestAccuracy {
			st.hist.BestAccuracy = acc
		}
		st.hist.FinalAccuracy = acc
		log.Printf("round %d/%d: cohort %d/%d, %d reported (%d timed out, %d dropped, %d late, %d stale), test accuracy %.2f%%",
			round, cfg.Rounds, ended, len(live), len(out.Reported), len(out.TimedOut), len(out.Dropped),
			out.LateDiscarded, out.Discarded, 100*acc)

		if cfg.CkptDir != "" {
			// Only a buffered run carries engine state: without it the
			// checkpoint bytes stay identical to pre-async servers.
			var async *core.AsyncState
			if cfg.Buffer > 0 {
				async = &core.AsyncState{Version: engine.Version(), Buffer: engine.Buffered()}
			}
			if err := snapshot(cfg, round, global, st, async); err != nil {
				return st.hist, fmt.Errorf("checkpoint round %d: %w", round, err)
			}
		}
	}

	// Close the history's totals the way Runner.finishRun does.
	hist := st.hist
	hist.TotalTrainSeconds = st.acct.TrainSeconds
	hist.TotalUplinkBytes = st.acct.UplinkBytes
	hist.TotalDownlinkBytes = st.acct.DownlinkBytes
	if eff, err := hist.LearningEfficiency(); err == nil {
		log.Printf("run complete: best accuracy %.2f%%, total client time %.1fs, learning efficiency %.2f %%/s",
			100*hist.BestAccuracy, hist.TotalTrainSeconds, eff)
	} else {
		log.Printf("run complete: best accuracy %.2f%%", 100*hist.BestAccuracy)
	}
	return hist, nil
}

// checkMetadata rejects an update whose self-reported numbers would poison
// what outlives the round: TrainSeconds and TrainLoss are summed into the
// history (and every checkpoint after it), and an infinite MeanEntropy would
// make the entropy scheduler pick that client forever. NaN entropy is the
// legal "no utility signal".
func checkMetadata(u comm.ClientUpdate) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(u.TrainSeconds) || u.TrainSeconds < 0:
		return fmt.Errorf("%w: client %d reports %v train seconds", comm.ErrProtocol, u.ClientID, u.TrainSeconds)
	case !finite(u.TrainLoss):
		return fmt.Errorf("%w: client %d reports train loss %v", comm.ErrProtocol, u.ClientID, u.TrainLoss)
	case math.IsInf(u.MeanEntropy, 0):
		return fmt.Errorf("%w: client %d reports mean entropy %v", comm.ErrProtocol, u.ClientID, u.MeanEntropy)
	}
	return nil
}

// scheduleCohort builds the candidate descriptors for the live clients and
// asks the policy for this round's cohort. The candidate's projected time is
// the client's last reported round seconds (zero before first contact), its
// size the Hello-reported |D_i|, and its utility the tracker's latest value.
func scheduleCohort(cfg Config, tracker *sched.Tracker, sess *comm.ServerSession, round int, live []int) []int {
	cands := make([]sched.Candidate, len(live))
	for i, id := range live {
		cands[i] = sched.Candidate{
			ClientID:         id,
			DataSize:         sess.LocalSize(id),
			ProjectedSeconds: tracker.Seconds(id),
			Available:        true,
			Tier:             sess.Tier(id),
			Clients:          sess.DownstreamClients(id),
		}
	}
	tracker.Stamp(cands)
	rng := tensor.NewRand(uint64(cfg.Seed), uint64(round), sched.StreamTag)
	return cfg.Scheduler.Schedule(round, cands, min(cfg.Cohort, len(live)), rng)
}

// updateWeigher routes the strategy's WeighUpdates rule into the streaming
// fold, one update at a time, multiplying *lambda on top — the staleness
// discount of the update being folded, 1 when nothing can be stale.
// The one-element scratch keeps the streaming path allocation-light.
func updateWeigher(strat strategy.Strategy, sess *comm.ServerSession, lambda *float64) comm.WeightFunc {
	var (
		upScratch [1]strategy.Update
		wScratch  [1]float64
	)
	return func(u comm.ClientUpdate) (float64, error) {
		upScratch[0] = strategy.Update{
			ClientID:    u.ClientID,
			NumSelected: u.NumSelected,
			LocalSize:   sess.LocalSize(u.ClientID),
		}
		if err := strat.WeighUpdates(upScratch[:], wScratch[:]); err != nil {
			return 0, err
		}
		return wScratch[0] * *lambda, nil
	}
}

// logFailures reports a round's failed clients in deterministic order.
func logFailures(out comm.RoundOutcome) {
	ids := make([]int, 0, len(out.Failures))
	for id := range out.Failures {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		log.Printf("round %d: client %d: %v", out.Round, id, out.Failures[id])
	}
}

// restore warm-starts the server from the newest checkpoint in cfg.CkptDir,
// installing the saved global model, history, accounting and scheduler
// feedback. It returns the last completed round plus the saved engine state
// (nil outside buffered mode), or 0 (and no changes) when the
// directory holds no checkpoint yet. Validation is the shared core.RunState
// rule set, so the server refuses exactly what the simulator refuses: wrong
// seed, different configuration, a round beyond Rounds, an inconsistent
// history, or a mismatched scheduler.
func restore(cfg Config, global *models.Model, st *progress) (int, *core.AsyncState, error) {
	snap, err := core.LoadLatestRunState(cfg.CkptDir)
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	if err := snap.ValidateFor(cfg.Seed, cfg.Rounds, cfg.ConfigTag(), cfg.Scheduler, cfg.TaggedStrategy(), cfg.TierSpec(), cfg.CodecName, ""); err != nil {
		return 0, nil, err
	}
	if err := snap.RestoreScheduler(cfg.Scheduler); err != nil {
		return 0, nil, err
	}
	if err := snap.RestoreStrategy(cfg.TaggedStrategy()); err != nil {
		return 0, nil, err
	}
	if err := core.RestoreModelState(global, snap.Model); err != nil {
		return 0, nil, err
	}
	st.hist, st.acct = snap.Hist, snap.Acct
	st.tracker.Restore(snap.TrackerUtil, snap.TrackerSeconds)
	return snap.Round, snap.Async, nil
}

// snapshot writes the post-aggregation state of one round into cfg.CkptDir,
// so a crashed server warm-starts from here instead of discarding the
// federation's progress.
func snapshot(cfg Config, round int, global *models.Model, st *progress, async *core.AsyncState) error {
	snap := &core.RunState{
		Seed:      cfg.Seed,
		ConfigTag: cfg.ConfigTag(),
		Round:     round,
		Model:     core.SnapshotModelState(global),
		Hist:      st.hist,
		Acct:      st.acct,
		Async:     async,
	}
	snap.TrackerUtil, snap.TrackerSeconds = st.tracker.Export()
	if err := snap.CaptureScheduler(cfg.Scheduler); err != nil {
		return err
	}
	snap.CaptureStrategy(cfg.TaggedStrategy())
	snap.TierSpec = cfg.TierSpec()
	// The server never holds error-feedback residuals (they live client-side),
	// so the codec section carries only the spec.
	snap.CodecName = cfg.CodecName
	return core.SaveRunState(ckpt.Path(cfg.CkptDir, round), snap)
}
