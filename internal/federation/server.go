// Package federation spells out the distributed FedFT-EDS round once: Serve
// is the server loop cmd/fedserver runs (synchronous rounds, relay regions
// and buffered-asynchronous aggregation are admission rules of the same
// loop), and Client.Run is the client round cmd/fedclient answers it with.
// Relay, which cmd/fedrelay runs, is the two halves stacked: a server to its
// leaves and a client of its root. Examples and end-to-end tests call the
// same entry points, so what they exercise is what the binaries ship.
package federation

import (
	"cmp"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"time"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// Config is one server run: Run is the value a core.Runner would take for
// it (Serve's doc names the fields it reads; Run.Async's Buffer 0 is
// synchronous), and the rest exists only on a server.
type Config struct {
	Run           core.Config
	NumClients    int
	RoundDeadline time.Duration
	Quorum        float64 // a fraction of a round's peers in (0, 1], or an absolute count above 1
	Relays        int     // hierarchical mode: regions to accept; 0 = flat
	SchedName     string  // the -sched name, tagged even when no scheduler runs
}

// Validate is the rulebook of a served run, for Serve and for
// cmd/fedserver's flags alike, so each message names the flag its field
// comes from. The peers a round can contact are the relay regions in
// hierarchical mode and the clients otherwise; a quorum, a cohort and a
// buffer must each be reachable from them, since no round could otherwise
// succeed. A buffer replaces the synchronous round's admission rules (the
// cohort, the quorum) and refuses the codecs that decode against the
// round's broadcast, which buffered clients no longer share. The Run fields
// Serve does not read — a straggler policy, an evaluation or checkpoint
// interval above one round — are refused by name rather than dropped
// (DESIGN.md tabulates every field).
func (c Config) Validate() error {
	run := c.Run
	peers := c.NumClients
	if c.Relays > 0 {
		peers = c.Relays
	}
	roundSize := peers
	if run.CohortSize > 0 {
		roundSize = run.CohortSize
	}
	codec, err := comm.ParseCodec(run.Codec)
	switch {
	case c.NumClients <= 0:
		return fmt.Errorf("-clients %d must be positive", c.NumClients)
	case run.Rounds <= 0:
		return fmt.Errorf("-rounds %d must be positive", run.Rounds)
	case run.LocalEpochs <= 0:
		return fmt.Errorf("-epochs %d must be positive", run.LocalEpochs)
	case !(run.SelectFraction > 0 && run.SelectFraction <= 1):
		return fmt.Errorf("-fraction %v outside (0, 1]", run.SelectFraction)
	case err != nil:
		return fmt.Errorf("-codec: %w", err)
	case !(c.Quorum > 0):
		return fmt.Errorf("-quorum %v must be positive", c.Quorum)
	case c.RoundDeadline < 0:
		return fmt.Errorf("-round-deadline %v is negative", c.RoundDeadline)
	case c.Relays < 0 || c.Relays > c.NumClients:
		return fmt.Errorf("-relays %d outside [0, %d], the -clients count: every region needs at least one leaf client",
			c.Relays, c.NumClients)
	case run.CohortSize < 0 || run.CohortSize > peers:
		return fmt.Errorf("-cohort %d outside [0, %d], the peers a round can contact (-relays %d, -clients %d)",
			run.CohortSize, peers, c.Relays, c.NumClients)
	case c.Quorum > 1 && c.Quorum != math.Trunc(c.Quorum):
		return fmt.Errorf("-quorum %v: values above 1 are absolute update counts and must be integers", c.Quorum)
	case c.Quorum > float64(roundSize):
		return fmt.Errorf("-quorum %v exceeds the %d participants a round can contact "+
			"(-cohort %d, -relays %d, -clients %d): no round could ever succeed",
			c.Quorum, roundSize, run.CohortSize, c.Relays, c.NumClients)
	case run.Async.Buffer < 0 || run.Async.Buffer > peers:
		return fmt.Errorf("-buffer %d outside [0, %d], the peers a round can contact (-relays %d, -clients %d): "+
			"each holds at most one outstanding update, so the buffer could never fill",
			run.Async.Buffer, peers, c.Relays, c.NumClients)
	case run.Straggler != nil:
		return fmt.Errorf("federation: straggler policy %T is simulated only: a served round admits "+
			"by -quorum and -round-deadline", run.Straggler)
	case run.EvalEvery > 1:
		return fmt.Errorf("federation: EvalEvery %d: a served run evaluates every round", run.EvalEvery)
	case run.CheckpointEvery > 1:
		return fmt.Errorf("federation: CheckpointEvery %d: a served run checkpoints every round", run.CheckpointEvery)
	case run.Async.Buffer == 0:
		return nil
	case run.CohortSize > 0:
		return fmt.Errorf("-cohort %d schedules synchronous rounds and cannot combine with -buffer %d: "+
			"the async engine dispatches to every idle client at each aggregation; drop -cohort or -buffer",
			run.CohortSize, run.Async.Buffer)
	case c.Quorum != 1:
		return fmt.Errorf("-quorum %v gates synchronous rounds and -buffer %d is the async aggregation trigger: "+
			"the two admission rules are mutually exclusive; drop -quorum or -buffer", c.Quorum, run.Async.Buffer)
	case codec.NeedsReference():
		return fmt.Errorf("-codec %s cannot combine with -buffer: the codec decodes against "+
			"the round's broadcast reference, which buffered-async clients no longer share; use float16", codec.Name())
	}
	return nil
}

// staleness is the discount a buffered run weighs updates by: identity for a
// synchronous run or a nil Run.Async.Weigher, as for the Runner.
func (c Config) staleness() strategy.StalenessWeigher {
	if c.Run.Async.Buffer == 0 || c.Run.Async.Weigher == nil {
		return strategy.IdentityStaleness()
	}
	return c.Run.Async.Weigher
}

// DefaultRecipe is the client recipe fedserver sends, and the one every
// client trained under before the recipe crossed the wire: FedFT-EDS at
// ρ 0.1 with moderate fine-tuning, LR 0.05 and momentum 0.5. ConfigTag
// appends a recipe part only where a run departs from it.
func DefaultRecipe() core.Config {
	return core.Config{LR: 0.05, Momentum: 0.5, FinetunePart: models.FinetuneModerate,
		Selector: selection.Entropy{Temperature: 0.1}}
}

// TaggedStrategy returns the strategy as checkpoints see it: nil for the
// default fedavg composition (whose checkpoints stay interchangeable with
// pre-strategy servers), the configured strategy otherwise.
func (c Config) TaggedStrategy() strategy.Strategy {
	if strategy.IsDefault(c.Run.Strategy) {
		return nil
	}
	return c.Run.Strategy
}

// recipe returns what every RoundStart of the run tells a client to train
// — Run's client half, defaulted and checked as core.LocalUpdate will check
// it — and the finetune part the server's own model takes. Prox is the only
// local hook of the (by now non-nil) Strategy, so it travels as its μ. A
// RoundStart carries no batch size: a run asking for other than core's
// default, 32, is refused rather than served at it.
func (c Config) recipe() (comm.RoundStart, models.FinetunePart, error) {
	run, err := core.NewLocalConfig(c.Run)
	if err != nil {
		return comm.RoundStart{}, 0, err
	}
	if run.BatchSize != 32 {
		return comm.RoundStart{}, 0, fmt.Errorf("federation: batch size %d cannot travel in a RoundStart "+
			"(clients train at batch size 32)", run.BatchSize)
	}
	sel, err := selection.Spec(run.Selector)
	if err != nil {
		return comm.RoundStart{}, 0, err
	}
	rs := comm.RoundStart{LocalEpochs: run.LocalEpochs, SelectFraction: run.SelectFraction,
		LR: run.LR, Momentum: run.Momentum, Selector: sel, TierDist: c.Run.TierSpec()}
	switch h := run.Strategy.LocalHook().(type) {
	case nil:
	case strategy.Prox:
		rs.ProxMu = h.Mu
	default:
		return comm.RoundStart{}, 0, fmt.Errorf("federation: local hook %s cannot travel in a RoundStart", h.Name())
	}
	return rs, run.FinetunePart, nil
}

// ConfigTag fingerprints the settings that shape the federation's training
// trajectory, so a checkpoint written under one configuration is never
// silently continued under another (the same refusal Runner applies).
// Quorum and deadline are included: they decide which client updates enter
// each aggregate; a non-default strategy contributes its Fingerprint (the
// default fedavg contributes nothing, keeping pre-strategy checkpoints
// resumable). The checkpoint directory stays out — where the federation
// stores cannot change what it computes. TagConfig hashes each part's type
// and value, so the part types here are part of the checkpoint format.
func (c Config) ConfigTag() uint64 {
	// An absolute quorum keeps the tag it had as its own field: 0.0 in the
	// quorum slot and an appended part. Like the tier distribution it is
	// appended only when set, so untiered fractional-quorum servers keep their
	// pre-tier tags — and their committed checkpoints — unchanged.
	quorum, absolute := c.Quorum, 0
	if quorum > 1 {
		quorum, absolute = 0, int(c.Quorum)
	}
	parts := []any{c.NumClients, c.Run.SelectFraction, c.Run.LocalEpochs, c.Run.CohortSize, c.SchedName,
		quorum, c.RoundDeadline}
	if s := c.TaggedStrategy(); s != nil {
		parts = append(parts, s.Fingerprint())
	}
	if absolute > 0 {
		parts = append(parts, fmt.Sprintf("minupdates:%d", absolute))
	}
	if c.Run.TierDist != nil {
		parts = append(parts, "tiers:"+c.Run.TierDist.String())
	}
	// Hierarchical and async parts follow the same append-only rule: a relay
	// tree changes which peers the round contacts, and buffer/staleness decide
	// which updates enter each aggregate at what weight, so a checkpoint never
	// silently crosses the flat/relay or sync/async boundary.
	if c.Relays > 0 {
		parts = append(parts, fmt.Sprintf("relays:%d", c.Relays))
	}
	if async := c.Run.Async; async.Buffer > 0 {
		parts = append(parts, fmt.Sprintf("buffer:%d", async.Buffer), "staleness:"+c.staleness().Name())
		if async.MaxStaleness >= 0 {
			parts = append(parts, fmt.Sprintf("maxstale:%d", async.MaxStaleness))
		}
	}
	// A lossy codec changes every update that enters the aggregate; identity
	// contributes nothing (its wire name is empty), so pre-codec checkpoints
	// stay resumable.
	if codec, err := comm.ParseCodec(c.Run.Codec); err == nil && comm.WireName(codec) != "" {
		parts = append(parts, "codec:"+codec.Name())
	}
	// So does a client recipe that departs from DefaultRecipe; the local
	// hook is already in the strategy's fingerprint.
	def := DefaultRecipe()
	sel, _ := selection.Spec(c.Run.Selector)
	if defSel, _ := selection.Spec(def.Selector); c.Run.LR != def.LR || c.Run.Momentum != def.Momentum ||
		c.Run.FinetunePart != def.FinetunePart || sel != defSel {
		parts = append(parts, fmt.Sprintf("recipe:lr=%v,momentum=%v,part=%v,selector=%s",
			c.Run.LR, c.Run.Momentum, c.Run.FinetunePart, sel))
	}
	return core.TagConfig(parts...)
}

// Serve drives one federation on an established listener: it accepts the
// configured participants, then for every round broadcasts the global
// model's trainable groups, streams the admitted updates into the
// strategy-weighted aggregate, applies it, evaluates on test and records the
// round in the History the in-process simulator also produces, so distributed
// and simulated runs are directly comparable.
//
// Serve reads Run's Rounds, Seed, Strategy (nil is strategy.FedAvg(), as for
// the Runner), FinetunePart (applied to global, as the Runner applies it),
// CohortSize and Scheduler (nil samples uniformly, as for the Runner), Async,
// CheckpointDir and Codec, and the client recipe every RoundStart carries:
// LocalEpochs, SelectFraction, LR, Momentum, Selector, TierDist and the
// Strategy's local hook. Clients train at core's default BatchSize, and
// Serve refuses a Run that sets another. It returns Config.Validate's error
// before it touches the listener, the model or the test set.
//
// With Run.CheckpointDir it creates the directory, warm-starts from its
// latest checkpoint and checkpoints after every round, so a
// crashed-and-restarted server resumes the federation where it stopped
// (clients reconnect and follow the server's round numbering). The run's
// progress is a core.Progress and crosses checkpoints through
// core.RunIdentity's Capture and Restore, as the Runner's does: the server
// refuses exactly the checkpoints the simulator refuses.
func Serve(cfg Config, l comm.Listener, global *models.Model, test *data.Dataset) (core.History, error) {
	prog := core.Progress{Tracker: sched.NewTracker()}
	if err := cfg.Validate(); err != nil {
		return prog.Hist, err
	}
	cfg.Run.Strategy = cmp.Or[strategy.Strategy](cfg.Run.Strategy, strategy.FedAvg())
	if cfg.Run.CohortSize > 0 {
		cfg.Run.Scheduler = cmp.Or[sched.Scheduler](cfg.Run.Scheduler, sched.UniformRandom{})
	}
	start, part, err := cfg.recipe()
	if err != nil {
		return prog.Hist, err
	}
	codec, err := comm.ParseCodec(cfg.Run.Codec)
	if err != nil {
		return prog.Hist, err
	}
	// The codec is advertised and recorded by its wire name: nothing for
	// identity, as on servers that predate codecs.
	codecName := comm.WireName(codec)
	// Groups that never train are never communicated.
	if err := global.SetFinetunePart(part); err != nil {
		return prog.Hist, err
	}
	commGroups := global.TrainableGroupNames()
	// What a checkpoint of this run must match; the default fedavg counts as
	// no strategy (TaggedStrategy), and a server has no fleet. Nor does it
	// hold codec residuals (they live client-side), so its codec section
	// carries only the spec.
	id := core.RunIdentity{Seed: cfg.Run.Seed, Rounds: cfg.Run.Rounds, ConfigTag: cfg.ConfigTag(),
		Scheduler: cfg.Run.Scheduler, Strategy: cfg.TaggedStrategy(), TierSpec: cfg.Run.TierSpec(), CodecName: codecName}
	startRound := 0
	var restored *core.AsyncState
	if dir := cfg.Run.CheckpointDir; dir != "" {
		// Before any client joins: a server that can train but not checkpoint
		// would lose the federation it promised to preserve.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return prog.Hist, fmt.Errorf("checkpoint dir: %w", err)
		}
		snap, err := core.LoadLatestRunState(dir)
		if err == nil {
			err = id.Restore(snap, global, &prog)
		}
		switch {
		case errors.Is(err, ckpt.ErrNoCheckpoint):
		case err != nil:
			return prog.Hist, fmt.Errorf("warm-start from %s: %w", dir, err)
		default:
			// The engine state rides along (nil outside buffered mode).
			startRound, restored = snap.Round, snap.Async
			log.Printf("warm-start: resuming after round %d from %s", startRound, dir)
		}
	}

	// In hierarchical mode the direct participants are the relay regions, not
	// the leaf clients they cover.
	participants, kind := cfg.NumClients, "clients"
	if cfg.Relays > 0 {
		participants, kind = cfg.Relays, fmt.Sprintf("relay regions covering %d clients", cfg.NumClients)
	}
	log.Printf("listening on %s, waiting for %d %s", l.Addr(), participants, kind)
	sess, err := comm.AcceptClientsCodec(l, participants, cfg.Run.Rounds, codecName)
	if err != nil {
		return prog.Hist, err
	}
	defer func() {
		if err := sess.Shutdown("done"); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	log.Printf("federation ready: clients %v, strategy %s, codec %s",
		sess.ClientIDs(), cfg.Run.Strategy.Fingerprint(), codec.Name())

	// One engine runs every mode: cohort, quorum, deadline and buffer are its
	// answers to which of a round's dispatches get folded. restored, from a
	// checkpoint, carries its version counter and the updates that had arrived
	// but were not aggregated, so a restarted buffered server resumes without
	// losing them.
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{
		RoundDeadline: cfg.RoundDeadline, Quorum: cfg.Quorum,
		Buffer: cfg.Run.Async.Buffer, MaxStaleness: cfg.Run.Async.MaxStaleness})
	if err != nil {
		return prog.Hist, err
	}
	if restored != nil {
		if err := engine.Restore(restored.Version, restored.Buffer); err != nil {
			return prog.Hist, err
		}
	}
	if cfg.Run.Async.Buffer > 0 {
		log.Printf("async: buffer %d, staleness %s, model v%d, %d buffered updates",
			cfg.Run.Async.Buffer, cfg.staleness().Name(), engine.Version(), len(engine.Buffered()))
	}
	// A relay region is a process worth restarting: keep the listener
	// admitting behind the round loop so a crashed relay re-registers and
	// rejoins at the next round boundary instead of shrinking the tree for
	// good.
	var admitter *comm.Admitter
	if cfg.Relays > 0 {
		if admitter, err = comm.NewAdmitterCodec(l, cfg.Relays, cfg.Run.Rounds, codecName); err != nil {
			return prog.Hist, err
		}
	}

	// One aggregator serves every round (Finish resets it), weighing each
	// update by the strategy and the staleness discount (core.UpdateWeigher,
	// the simulator's weight too; λ is exactly 1 without a buffer). In
	// tier mode clients ship only the groups their capability affords, so it
	// is built over the layout and averages each tensor over exactly the
	// clients that covered it, uncovered tensors falling back to the current
	// global state; untiered clients and relays cover everything. A relay does
	// its region's per-layer work one tier down, against the Layout broadcast
	// in relay mode, and answers with the whole state like an untiered client.
	var layout, bcastLayout []string
	if cfg.Run.TierDist != nil {
		if layout, err = global.GroupStateLayout(commGroups); err != nil {
			return prog.Hist, err
		}
	}
	if cfg.Relays > 0 {
		bcastLayout = layout
	}
	agg, err := comm.NewMaskedStreamAggregator(
		core.UpdateWeigher(cfg.Run.Strategy, cfg.staleness(), engine.Version, sess.LocalSize), commGroups, layout)
	if err != nil {
		return prog.Hist, err
	}
	policy := ""
	if cfg.Run.Scheduler != nil {
		policy = cfg.Run.Scheduler.Name()
	}
	// A client's tier is the one it derives itself, from the same assignment;
	// relay regions have none.
	var tiers []string
	if cfg.Run.TierDist != nil && cfg.Relays == 0 {
		tiers = cfg.Run.TierDist.Assign(cfg.NumClients, cfg.Run.Seed)
	}
	// Built after the restore, over the groups no round writes: the test set
	// goes through the frozen prefix once, on the first evaluation.
	eval := core.NewEvalView(global, test)

	for round := startRound + 1; round <= cfg.Run.Rounds; round++ {
		stateTs, err := global.GroupStateTensors(commGroups)
		if err != nil {
			return prog.Hist, err
		}
		blob, err := comm.EncodeTensors(stateTs)
		if err != nil {
			return prog.Hist, err
		}
		// Stream each update into the weighted sum as it arrives: the
		// server holds one decoded state at a time, O(state) not O(N·state).
		// The round's broadcast tensors (stateTs, still holding the broadcast
		// values until ApplyAggregate below) are what every update is
		// validated against, what a lossy codec decodes against, and what
		// uncovered tensors fall back to. Only reference-free codecs reach
		// async mode, so a stale update never decodes against them.
		agg.SetCodec(codec, stateTs)
		// A rejected update is that client's failure and leaves aggregate,
		// history and scheduler untouched: Add checks before it sums.
		fold := func(u comm.ClientUpdate) error {
			if err := agg.Add(u); err != nil {
				return err
			}
			prog.Tracker.ObserveUpdate(u.ClientID, u.MeanEntropy, u.TrainLoss, u.TrainSeconds)
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
		if cfg.Run.Scheduler != nil {
			cohort = scheduleCohort(cfg, prog.Tracker, sess, tiers, round, live)
		}
		rs := start
		rs.Round, rs.State, rs.Groups, rs.Layout = round, blob, commGroups, bcastLayout
		out, err := engine.RunCohort(rs, cohort, fold)
		// A timed-out client took at least the whole deadline; record that so
		// time-driven policies stop treating a hung client as instant.
		for _, id := range out.TimedOut {
			prog.Tracker.ObserveTimeout(id, cfg.RoundDeadline.Seconds())
		}
		logFailures(out)
		if err != nil {
			return prog.Hist, err
		}
		// The round's sums start from zero before they join the running totals:
		// with two reporters they are then independent of arrival order, which
		// keeps resumed and uninterrupted histories bit-identical.
		sum := agg.Sum()
		fused, err := agg.Finish()
		if err != nil {
			return prog.Hist, err
		}
		// stateTs are live views of the global model's groups — the
		// strategy's server optimizer folds the weighted average into them
		// (fedavg overwrites, exactly the pre-strategy behavior).
		if err := cfg.Run.Strategy.ApplyAggregate(stateTs, fused); err != nil {
			return prog.Hist, fmt.Errorf("strategy %s: round %d: %w", cfg.Run.Strategy.Name(), round, err)
		}

		acc, err := eval.Accuracy()
		if err != nil {
			return prog.Hist, err
		}
		prog.Acct.AddRound(simtime.RoundCost{TrainSeconds: sum.TrainSeconds})
		prog.Acct.AddCommunication(sum.UplinkBytes, int64(sum.Updates)*int64(len(blob)))
		// The recorded cohort is every dispatch that ended in the round: the
		// scheduled cohort when the round awaited it all, fewer under a buffer.
		ended := len(out.Reported) + out.Discarded + len(out.TimedOut) + len(out.Dropped)
		prog.Record(core.RoundRecord{Round: round, CohortSize: ended, SchedPolicy: policy,
			Participants: len(out.Reported), TestAccuracy: acc, MeanTrainLoss: sum.LossSum / float64(sum.Updates)})
		log.Printf("round %d/%d: cohort %d/%d, %d reported (%d timed out, %d dropped, %d late, %d stale), test accuracy %.2f%%",
			round, cfg.Run.Rounds, ended, len(live), len(out.Reported), len(out.TimedOut), len(out.Dropped),
			out.LateDiscarded, out.Discarded, 100*acc)

		if dir := cfg.Run.CheckpointDir; dir != "" {
			snap, err := id.Capture(round, global, &prog)
			if err == nil {
				// Only a buffered run carries engine state: without it the
				// checkpoint bytes stay identical to pre-async servers.
				if cfg.Run.Async.Buffer > 0 {
					snap.Async = &core.AsyncState{Version: engine.Version(), Buffer: engine.Buffered()}
				}
				err = core.SaveRunState(ckpt.Path(dir, round), snap)
			}
			if err != nil {
				return prog.Hist, fmt.Errorf("checkpoint round %d: %w", round, err)
			}
		}
	}

	hist := prog.Finish()
	if eff, err := hist.LearningEfficiency(); err == nil {
		log.Printf("run complete: best accuracy %.2f%%, total client time %.1fs, learning efficiency %.2f %%/s",
			100*hist.BestAccuracy, hist.TotalTrainSeconds, eff)
	} else {
		log.Printf("run complete: best accuracy %.2f%%", 100*hist.BestAccuracy)
	}
	return hist, nil
}

// scheduleCohort builds the candidate descriptors for the live clients and
// asks the policy for this round's cohort. The candidate's projected time is
// the client's last reported round seconds (zero before first contact), its
// size the Hello-reported |D_i|, its tier its entry in tiers (none outside
// it), and its utility the tracker's latest value.
func scheduleCohort(cfg Config, tracker *sched.Tracker, sess *comm.ServerSession, tiers []string, round int, live []int) []int {
	cands := make([]sched.Candidate, len(live))
	for i, id := range live {
		cands[i] = sched.Candidate{
			ClientID:         id,
			DataSize:         sess.LocalSize(id),
			ProjectedSeconds: tracker.Seconds(id),
			Available:        true,
		}
		if id >= 0 && id < len(tiers) {
			cands[i].Tier = tiers[id]
		}
	}
	tracker.Stamp(cands)
	rng := tensor.NewRand(uint64(cfg.Run.Seed), uint64(round), sched.StreamTag)
	return cfg.Run.Scheduler.Schedule(round, cands, min(cfg.Run.CohortSize, len(live)), rng)
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
