package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// schemaVersion is the run-state schema version carried inside the "meta"
// section, independent of the ckpt container version: the container framing
// can stay stable while the section layout evolves.
const schemaVersion = 1

// AsyncState is a buffered-asynchronous (FedBuff) server's resumable state
// at a checkpoint boundary: the model version counter and the buffer of
// updates that arrived but were not yet aggregated. Nil on synchronous
// runs, whose checkpoints keep their exact legacy byte layout.
type AsyncState struct {
	// Version is the number of aggregations applied since run start.
	Version int
	// Buffer holds the pending wire updates in arrival order, the encoded
	// state blobs carried opaquely. The checkpoint stores every field but the
	// Codec echo, which decoding restores from the codec section.
	Buffer []comm.ClientUpdate
}

// RunState is the complete resumable state of a federated run at a round
// boundary: everything that survives from one round to the next. Per-round
// randomness needs no cursors here — every RNG stream is derived statelessly
// from (Seed, round, tag), so recording Seed and Round pins them all; the
// only persistent RNG-bearing objects (dropout layers) are rewound on every
// replica rebind by construction.
type RunState struct {
	// Seed is the run seed the state was produced under. Restoring into a
	// runner with a different seed is refused: the resumed rounds would
	// silently draw from different RNG streams.
	Seed int64
	// ConfigTag fingerprints the run the state was produced under: the
	// training hyperparameters and the federation's identity (client
	// count, per-client data sizes and device rates). Restoring under a
	// different configuration or client pool is refused: the resumed
	// rounds would silently blend two training regimes.
	ConfigTag uint64
	// Round is the last completed round.
	Round int
	// Model holds snapshots of the full global model state (every parameter
	// and buffer of every group, trainable or frozen), so a restore does not
	// depend on how the caller initialized its model.
	Model []*tensor.Tensor
	// Hist is the run history up to and including Round.
	Hist History
	// Acct is the simulated cost accounting at the boundary.
	Acct simtime.AccountantState
	// TrackerUtil and TrackerSeconds are the scheduler feedback store.
	TrackerUtil, TrackerSeconds map[int]float64
	// SchedName names the scheduling policy the state was produced under
	// (empty without a scheduler); restore refuses a mismatch.
	SchedName string
	// SchedState is the policy's internal state for stateful policies
	// (sched.Stateful, e.g. the Availability churn chain); empty otherwise.
	SchedState []byte
	// Opt holds live per-client optimizer state (opt.SGD.StateTensors),
	// keyed by client ID. Both engines reset client optimizers at round
	// boundaries, so this is empty in every checkpoint the Runner writes;
	// the section exists so the format can carry mid-round optimizer state
	// without a version bump.
	Opt map[int][]*tensor.Tensor
	// StratName is the Fingerprint of the explicitly configured strategy
	// the state was produced under (empty for the legacy default path).
	// Restore refuses a mismatch, so state trained under one strategy —
	// or one setting of its parameters — is never continued under another.
	StratName string
	// StratState holds the strategy's server-optimizer state tensors
	// (strategy.Stateful.StateTensors): FedAvgM's velocity, FedAdam's
	// moments. Empty for stateless strategies.
	StratState []*tensor.Tensor
	// TierSpec is the canonical rendering of the device-tier distribution
	// the state was produced under (device.Distribution.String; empty for
	// untiered runs). Restore refuses a mismatch, so state trained under one
	// tier mix — one set of per-client layer masks — is never continued
	// under an edited one.
	TierSpec string
	// Async is the buffered-asynchronous server state (nil for synchronous
	// runs). The async mode contributes its buffer/staleness flags to the
	// config tag, so Restore already refuses crossing a checkpoint between
	// the two modes.
	Async *AsyncState
	// CodecName is the uplink-codec spec the state was produced under
	// (comm.ParseCodec form; empty for codec-free runs). Restore refuses a
	// mismatch: resuming under an edited codec would silently change every
	// subsequent update's quantization — and for topk, orphan the carried
	// residuals.
	CodecName string
	// CodecResiduals holds each client's carried error-feedback residual
	// tensors (topk), keyed by client ID; nil when no client carries any.
	CodecResiduals map[int][]*tensor.Tensor
	// FleetSpec is the client source's population fingerprint (empty for the
	// legacy eager pool). Restore refuses a mismatch: resuming under an
	// edited fleet — different seeds, sizes, availability clustering — would
	// silently re-derive every virtual client differently.
	FleetSpec string
}

// snapshotModelState clones a model's full state tensors (params and buffers
// of every group) in their canonical order.
func snapshotModelState(m *models.Model) []*tensor.Tensor {
	live := m.StateTensors()
	out := make([]*tensor.Tensor, len(live))
	for i, t := range live {
		out[i] = t.Clone()
	}
	return out
}

// restoreModelState copies a snapshotModelState snapshot back into a model.
func restoreModelState(m *models.Model, ts []*tensor.Tensor) error {
	dst := m.StateTensors()
	if len(dst) != len(ts) {
		return fmt.Errorf("core: restore: %d state tensors for a model with %d", len(ts), len(dst))
	}
	for i := range dst {
		if err := dst[i].CopyFrom(ts[i]); err != nil {
			return fmt.Errorf("core: restore: state tensor %d: %w", i, err)
		}
	}
	return nil
}

// copyHistory deep-copies a history so a snapshot cannot alias the runner's
// still-growing record slice.
func copyHistory(h History) History {
	out := h
	out.Records = append([]RoundRecord(nil), h.Records...)
	return out
}

// TagConfig hashes a deterministic rendering of the given values into a
// run-configuration fingerprint: checkpoint writers record it and restores
// compare it, so state trained under one configuration is never silently
// continued under another. Values must render deterministically under
// fmt's %+v (plain structs and scalars do); a tagText part is hashed as its
// raw text.
func TagConfig(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		if text, ok := p.(tagText); ok {
			io.WriteString(h, string(text))
			continue
		}
		fmt.Fprintf(h, "%T:%+v;", p, p)
	}
	return h.Sum64()
}

// tagText is a TagConfig part hashed verbatim.
type tagText string

// trainingTag fingerprints every configuration field that shapes the
// training trajectory or the history's shape. Rounds is deliberately
// excluded (extending a finished run is supported), as are the scheduler
// (validated by name, with its own serialized state) and the
// checkpoint/parallelism knobs (they must not affect results at all). An
// explicit strategy contributes its Fingerprint; a nil Strategy contributes
// nothing, keeping legacy configs' tags — and therefore their committed
// checkpoints — stable across the strategy redesign. The Strategy absorbed
// two fields whose renderings stay: 0.0 for the FedProx μ, and the text the
// aggregation weighting rendered beside a nil or an explicit Strategy.
func (c Config) trainingTag() uint64 {
	weighting := tagText("core.AggWeighting:selected;")
	if c.Strategy != nil {
		weighting = "core.AggWeighting:AggWeighting(0);"
	}
	parts := []any{c.LocalEpochs, c.BatchSize, c.LR, c.Momentum, c.WeightDecay,
		0.0, c.FinetunePart, c.Selector, c.SelectFraction, c.CohortSize,
		c.Straggler, weighting, c.EvalEvery}
	if c.Strategy != nil {
		parts = append(parts, c.Strategy.Fingerprint())
	}
	// The tier distribution is appended only when configured, keeping
	// untiered configs' tags — and their committed checkpoints — stable
	// across the partial-training refactor.
	if c.TierDist != nil {
		parts = append(parts, "tiers:"+c.TierDist.String())
	}
	// The codec is appended only when configured, keeping codec-free
	// configs' tags — and their committed checkpoints — stable. "identity"
	// contributes too: its accounting differs from the legacy lossless
	// path (honest wire headers), so the two must not share checkpoints.
	if c.Codec != "" {
		parts = append(parts, "codec:"+c.Codec)
	}
	return TagConfig(parts...)
}

// TierSpec is the config's canonical tier-distribution rendering (empty when
// untiered) — what checkpoints record and restores compare, and what a
// served RoundStart carries.
func (c Config) TierSpec() string {
	if c.TierDist == nil {
		return ""
	}
	return c.TierDist.String()
}

// runTag extends trainingTag with the federation's identity — client count
// and every client's ID, local data size and device rate — so a checkpoint
// is also refused when the client pool it was trained over changed, not
// just the hyperparameters. A source with a non-empty Fingerprint (a virtual
// fleet) already pins the whole population's construction, so its tag hashes
// the fingerprint instead of walking millions of descriptors per checkpoint;
// the legacy eager source (empty fingerprint) keeps the per-client hash and
// therefore its committed checkpoint tags.
func (r *Runner) runTag() uint64 {
	if fp := r.src.Fingerprint(); fp != "" {
		return TagConfig(r.cfg.trainingTag(), r.src.NumClients(), "src:"+fp)
	}
	parts := make([]any, 0, 2+3*len(r.clients))
	parts = append(parts, r.cfg.trainingTag(), len(r.clients))
	for _, cl := range r.clients {
		parts = append(parts, cl.ID, cl.Data.Len(), cl.Device.FLOPSRate)
	}
	return TagConfig(parts...)
}

// RunIdentity is what a checkpoint must have been written under to be
// resumed: the run's seed, round budget and configuration tag, and the
// plug-ins and specs whose state or meaning a checkpoint carries. Each
// runtime describes itself once — Runner.identity, and Serve from its
// federation.Config — and reaches checkpoints only through Capture and
// Restore, so the two runtimes' checkpoints and refusal rules cannot drift
// apart.
type RunIdentity struct {
	Seed   int64
	Rounds int
	// ConfigTag is the runtime's configuration fingerprint: the Runner's
	// runTag, federation.Config.ConfigTag.
	ConfigTag uint64
	// Scheduler is the cohort scheduler, nil without one; a stateful one's
	// state travels in the checkpoint.
	Scheduler sched.Scheduler
	// Strategy is the explicitly configured strategy, nil for the legacy
	// default path; a stateful one's server-optimizer state travels.
	Strategy strategy.Strategy
	// TierSpec is the device-tier distribution's canonical String, CodecName
	// the uplink codec's comm.ParseCodec spec and FleetSpec the client
	// source's Fingerprint; each is empty when the run has none.
	TierSpec, CodecName, FleetSpec string
}

// Capture snapshots a run at the boundary after round: the global model's
// full state, the progress and the scheduler's and strategy's state, under
// the identity's names. The returned state is independent of the run:
// tensors are cloned and maps and records copied.
func (id RunIdentity) Capture(round int, global *models.Model, p *Progress) (*RunState, error) {
	s := &RunState{
		Seed:      id.Seed,
		ConfigTag: id.ConfigTag,
		Round:     round,
		Model:     snapshotModelState(global),
		Hist:      copyHistory(p.Hist),
		Acct:      p.Acct.State(),
		TierSpec:  id.TierSpec,
		CodecName: id.CodecName,
		FleetSpec: id.FleetSpec,
	}
	s.TrackerUtil, s.TrackerSeconds = p.Tracker.Export()
	if id.Scheduler != nil {
		s.SchedName = id.Scheduler.Name()
		if st, ok := id.Scheduler.(sched.Stateful); ok {
			blob, err := st.SnapshotState()
			if err != nil {
				return nil, fmt.Errorf("core: snapshot scheduler %s: %w", s.SchedName, err)
			}
			s.SchedState = blob
		}
	}
	if id.Strategy != nil {
		s.StratName = id.Strategy.Fingerprint()
		if st, ok := id.Strategy.(strategy.Stateful); ok {
			for _, t := range st.StateTensors() {
				s.StratState = append(s.StratState, t.Clone())
			}
		}
	}
	return s, nil
}

// Restore installs a checkpointed state into a run, reversing Capture: it
// refuses a state written under another identity (check), then restores the
// scheduler's and strategy's state, the global model and the progress.
func (id RunIdentity) Restore(s *RunState, global *models.Model, p *Progress) error {
	if err := id.check(s); err != nil {
		return err
	}
	if st, ok := id.Scheduler.(sched.Stateful); ok {
		if err := st.RestoreState(s.SchedState); err != nil {
			return fmt.Errorf("core: restore scheduler %s: %w", id.Scheduler.Name(), err)
		}
	}
	// A nil or stateless strategy carries no state: check refused any.
	if st, ok := id.Strategy.(strategy.Stateful); ok {
		if err := st.RestoreStateTensors(s.StratState); err != nil {
			return fmt.Errorf("core: restore strategy %s: %w", id.Strategy.Name(), err)
		}
	}
	if err := restoreModelState(global, s.Model); err != nil {
		return err
	}
	p.Tracker.Restore(s.TrackerUtil, s.TrackerSeconds)
	p.Acct.Restore(s.Acct)
	p.Hist = copyHistory(s.Hist)
	return nil
}

// check refuses a state that does not belong to the run the identity
// describes: another seed or configuration tag, a round beyond the budget, a
// history that does not match its round, or another scheduler, strategy,
// tier distribution, codec or fleet.
func (id RunIdentity) check(s *RunState) error {
	if s.Seed != id.Seed {
		return fmt.Errorf("%w: checkpoint seed %d does not match configured seed %d",
			ErrConfig, s.Seed, id.Seed)
	}
	if s.ConfigTag != id.ConfigTag {
		return fmt.Errorf("%w: checkpoint was written under a different training configuration "+
			"(tag %#x vs %#x); resuming would silently blend two regimes",
			ErrConfig, s.ConfigTag, id.ConfigTag)
	}
	if s.Round < 0 || s.Round > id.Rounds {
		return fmt.Errorf("%w: checkpoint round %d outside configured run of %d rounds",
			ErrConfig, s.Round, id.Rounds)
	}
	if len(s.Hist.Records) != s.Round {
		return fmt.Errorf("%w: checkpoint has %d history records for round %d",
			ErrConfig, len(s.Hist.Records), s.Round)
	}
	cfgSched := ""
	if id.Scheduler != nil {
		cfgSched = id.Scheduler.Name()
	}
	if s.SchedName != cfgSched {
		return fmt.Errorf("%w: checkpoint scheduler %q does not match configured %q",
			ErrConfig, s.SchedName, cfgSched)
	}
	if _, ok := id.Scheduler.(sched.Stateful); ok {
		if len(s.SchedState) == 0 {
			return fmt.Errorf("%w: stateful scheduler %s but checkpoint carries no scheduler state",
				ErrConfig, cfgSched)
		}
	} else if len(s.SchedState) > 0 {
		return fmt.Errorf("%w: checkpoint carries scheduler state but %q is stateless",
			ErrConfig, cfgSched)
	}
	cfgStrat := ""
	if id.Strategy != nil {
		cfgStrat = id.Strategy.Fingerprint()
	}
	if s.StratName != cfgStrat {
		return fmt.Errorf("%w: checkpoint strategy %q does not match configured %q; resuming under "+
			"an edited strategy would silently blend two optimization regimes",
			ErrConfig, s.StratName, cfgStrat)
	}
	if len(s.StratState) > 0 {
		if _, ok := id.Strategy.(strategy.Stateful); !ok {
			return fmt.Errorf("%w: checkpoint carries strategy state but %q cannot hold it",
				ErrConfig, cfgStrat)
		}
	}
	if s.TierSpec != id.TierSpec {
		return fmt.Errorf("%w: checkpoint tier distribution %q does not match configured %q; resuming "+
			"under an edited tier mix would silently change every client's layer mask",
			ErrConfig, s.TierSpec, id.TierSpec)
	}
	if s.CodecName != id.CodecName {
		return fmt.Errorf("%w: checkpoint codec %q does not match configured %q; resuming under an "+
			"edited codec would silently change every subsequent update's wire encoding",
			ErrConfig, s.CodecName, id.CodecName)
	}
	if len(s.CodecResiduals) > 0 && id.CodecName == "" {
		return fmt.Errorf("%w: checkpoint carries codec residuals but no codec is configured", ErrConfig)
	}
	if s.FleetSpec != id.FleetSpec {
		return fmt.Errorf("%w: checkpoint fleet fingerprint %q does not match configured %q; resuming "+
			"under an edited fleet would silently re-derive every virtual client",
			ErrConfig, s.FleetSpec, id.FleetSpec)
	}
	return nil
}

// identity is the Runner's RunIdentity. Its tag is runTag, which also pins
// the client pool.
func (r *Runner) identity() RunIdentity {
	return RunIdentity{Seed: r.cfg.Seed, Rounds: r.cfg.Rounds, ConfigTag: r.runTag(), Scheduler: r.cfg.Scheduler,
		Strategy: r.cfg.Strategy, TierSpec: r.cfg.TierSpec(), CodecName: r.cfg.Codec, FleetSpec: r.src.Fingerprint()}
}

// Snapshot captures the runner's complete resumable state after the last
// completed round, the codec's per-client residuals included. The returned
// state is independent of the runner.
func (r *Runner) Snapshot() (*RunState, error) {
	s, err := r.identity().Capture(r.doneRound, r.global, &r.prog)
	if err != nil {
		return nil, err
	}
	s.CodecResiduals = r.codecResiduals()
	return s, nil
}

// RestoreInto installs the state into a freshly constructed runner, which
// must have been built with the same configuration (seed, strategy,
// scheduler, clients) as the run that produced the state. The runner's next
// Run continues after s.Round and reproduces the uninterrupted run bit for
// bit. Call before Run.
func (s *RunState) RestoreInto(r *Runner) error {
	if err := r.identity().Restore(s, r.global, &r.prog); err != nil {
		return err
	}
	if err := r.restoreCodecResiduals(s.CodecResiduals); err != nil {
		return err
	}
	r.dropFrozenViews() // derived from the weights just replaced

	// Extending a finished run: that run force-evaluated its final round
	// (Run always evaluates round == Rounds), which a longer run would skip
	// when the round misses the EvalEvery cadence. Evaluation never mutates
	// training state, so only the history needs repair: un-evaluate the
	// record and recompute the accuracy aggregates, keeping the extension
	// bit-identical to a from-scratch longer run.
	hist := &r.prog.Hist
	if s.Round > 0 && s.Round < r.cfg.Rounds && s.Round%r.cfg.EvalEvery != 0 {
		rec := &hist.Records[s.Round-1]
		if !math.IsNaN(rec.TestAccuracy) {
			rec.TestAccuracy = math.NaN()
			var best, final float64
			for _, rr := range hist.Records {
				if !math.IsNaN(rr.TestAccuracy) {
					if rr.TestAccuracy > best {
						best = rr.TestAccuracy
					}
					final = rr.TestAccuracy
				}
			}
			hist.BestAccuracy, hist.FinalAccuracy = best, final
		}
	}

	r.startRound = s.Round
	r.doneRound = s.Round
	r.restored = true
	return nil
}

// runStateSections is the checkpoint's run-state layout, written once: the
// sections in file order, each with its name, whether it is mandatory or
// when it is written, and its field list. Sections and RunStateFromSections
// both walk this table through a ckpt.Coder, so it is the normative
// description of the format (DESIGN.md, "Checkpoint file format", gives the
// reasons). Every optional section is absent unless its feature is
// configured, which keeps checkpoints of runs without that feature — and the
// committed golden fixtures — byte-identical to what was written before the
// feature existed.
var runStateSections = []struct {
	name string
	// present reports whether an optional section is written for a state;
	// nil marks a mandatory one.
	present func(*RunState) bool
	fields  func(*ckpt.Coder, *RunState)
}{
	{name: "meta", fields: func(c *ckpt.Coder, s *RunState) {
		v := uint64(schemaVersion)
		c.Uint64(&v)
		if v != schemaVersion {
			c.Fail(fmt.Errorf("%w: run-state schema %d (supported: %d)", ckpt.ErrVersion, v, schemaVersion))
		}
		c.Int64(&s.Seed)
		c.Uint64(&s.ConfigTag)
		c.Int(&s.Round)
		c.Float64(&s.Acct.SelectionSeconds)
		c.Float64(&s.Acct.TrainSeconds)
		c.Int64(&s.Acct.UplinkBytes)
		c.Int64(&s.Acct.DownlinkBytes)
	}},
	{name: "model", fields: func(c *ckpt.Coder, s *RunState) { c.Tensors(&s.Model) }},
	{name: "history", fields: func(c *ckpt.Coder, s *RunState) {
		ckpt.List(c, &s.Hist.Records, func(c *ckpt.Coder, rec *RoundRecord) {
			c.Int(&rec.Round)
			c.Int(&rec.CohortSize)
			c.String(&rec.SchedPolicy)
			c.Int(&rec.Participants)
			c.Float64(&rec.TestAccuracy)
			c.Float64(&rec.MeanTrainLoss)
			c.Float64(&rec.CumTrainSeconds)
			c.Int64(&rec.CumUplinkBytes)
		})
		c.Float64(&s.Hist.BestAccuracy)
		c.Float64(&s.Hist.FinalAccuracy)
		c.Float64(&s.Hist.TotalTrainSeconds)
		c.Int64(&s.Hist.TotalUplinkBytes)
		c.Int64(&s.Hist.TotalDownlinkBytes)
	}},
	{name: "tracker", fields: func(c *ckpt.Coder, s *RunState) {
		c.Float64Map(&s.TrackerUtil)
		c.Float64Map(&s.TrackerSeconds)
	}},
	{name: "sched", fields: func(c *ckpt.Coder, s *RunState) {
		c.String(&s.SchedName)
		c.Bytes(&s.SchedState)
	}},
	{name: "opt", fields: func(c *ckpt.Coder, s *RunState) { c.TensorMap(&s.Opt) }},
	// Written only for an explicitly configured strategy (nil-Strategy runs
	// take the legacy default path).
	{name: "strategy",
		present: func(s *RunState) bool { return s.StratName != "" || len(s.StratState) > 0 },
		fields: func(c *ckpt.Coder, s *RunState) {
			c.String(&s.StratName)
			c.Tensors(&s.StratState)
		}},
	// Written only for tiered runs (Config.TierDist set).
	{name: "tiers",
		present: func(s *RunState) bool { return s.TierSpec != "" },
		fields:  func(c *ckpt.Coder, s *RunState) { c.String(&s.TierSpec) }},
	// Written only by buffered-asynchronous (FedBuff) servers: the model
	// version counter and the updates buffered but not yet aggregated, so a
	// warm start resumes mid-buffer. An update's Codec echo is not stored;
	// RunStateFromSections restores it from the codec section.
	{name: "async",
		present: func(s *RunState) bool { return s.Async != nil },
		fields: func(c *ckpt.Coder, s *RunState) {
			if s.Async == nil {
				s.Async = &AsyncState{}
			}
			c.Int(&s.Async.Version)
			ckpt.List(c, &s.Async.Buffer, func(c *ckpt.Coder, u *comm.ClientUpdate) {
				c.Int(&u.ClientID)
				c.Int(&u.Round)
				c.Int(&u.Version)
				c.Bytes(&u.State)
				ckpt.List(c, &u.Groups, (*ckpt.Coder).String)
				c.Int(&u.NumSelected)
				c.Float64(&u.TrainSeconds)
				c.Float64(&u.TrainLoss)
				c.Float64(&u.MeanEntropy)
			})
		}},
	// Written only for runs with an uplink codec configured (Config.Codec /
	// fedserver -codec): the codec spec and any per-client error-feedback
	// residuals (topk), so a resumed run continues the error-feedback chain
	// bit for bit.
	{name: "codec",
		present: func(s *RunState) bool { return s.CodecName != "" || len(s.CodecResiduals) > 0 },
		fields: func(c *ckpt.Coder, s *RunState) {
			c.String(&s.CodecName)
			c.TensorMap(&s.CodecResiduals)
		}},
	// Written only for fleet-backed runs (a ClientSource with a non-empty
	// Fingerprint): the fingerprint pins the virtual population — seeds, size
	// distribution, clustering — so a restore under an edited fleet (or under
	// the eager path) is refused.
	{name: "fleet",
		present: func(s *RunState) bool { return s.FleetSpec != "" },
		fields:  func(c *ckpt.Coder, s *RunState) { c.String(&s.FleetSpec) }},
}

// Sections encodes the state into checkpoint sections by walking
// runStateSections. Encoding is deterministic: identical state yields
// identical bytes.
func (s *RunState) Sections() ([]ckpt.Section, error) {
	var sections []ckpt.Section
	for _, sec := range runStateSections {
		if sec.present != nil && !sec.present(s) {
			continue
		}
		body, err := ckpt.Encode(func(c *ckpt.Coder) { sec.fields(c, s) })
		if err != nil {
			return nil, fmt.Errorf("%s section: %w", sec.name, err)
		}
		sections = append(sections, ckpt.Section{Name: sec.name, Body: body})
	}
	return sections, nil
}

// RunStateFromSections decodes checkpoint sections, reversing Sections over
// the same table. Structural problems (missing sections, truncated bodies)
// report ckpt.ErrCorrupt.
func RunStateFromSections(sections []ckpt.Section) (*RunState, error) {
	bodies := make(map[string][]byte, len(sections))
	for _, sec := range sections {
		bodies[sec.Name] = sec.Body
	}
	s := &RunState{}
	for _, sec := range runStateSections {
		body, ok := bodies[sec.name]
		if !ok {
			if sec.present == nil {
				return nil, fmt.Errorf("%w: missing %q section", ckpt.ErrCorrupt, sec.name)
			}
			continue
		}
		if err := ckpt.Decode(body, func(c *ckpt.Coder) { sec.fields(c, s) }); err != nil {
			return nil, fmt.Errorf("%s section: %w", sec.name, err)
		}
	}
	// The one cross-section step: buffered updates are stored without their
	// codec echo, because every one of them was accepted under the session
	// codec the codec section names.
	if s.Async != nil {
		for i := range s.Async.Buffer {
			s.Async.Buffer[i].Codec = s.CodecName
		}
	}
	return s, nil
}

// SaveRunState writes the state to path atomically.
func SaveRunState(path string, s *RunState) error {
	sections, err := s.Sections()
	if err != nil {
		return err
	}
	return ckpt.Save(path, sections)
}

// LoadLatestRunState loads the newest valid checkpoint in dir
// (ckpt.ErrNoCheckpoint when there is none).
func LoadLatestRunState(dir string) (*RunState, error) {
	_, sections, err := ckpt.LoadLatest(dir)
	if err != nil {
		return nil, err
	}
	return RunStateFromSections(sections)
}

// SaveCheckpoint snapshots the runner and writes the checkpoint for the last
// completed round into dir (created if missing), returning the file path.
// Run calls this automatically when Config.CheckpointDir is set; it is
// exported for callers that manage checkpoint cadence themselves.
func (r *Runner) SaveCheckpoint(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("core: checkpoint dir: %w", err)
	}
	s, err := r.Snapshot()
	if err != nil {
		return "", err
	}
	path := ckpt.Path(dir, s.Round)
	if err := SaveRunState(path, s); err != nil {
		return "", err
	}
	return path, nil
}

// ResumeLatest restores the runner from the newest valid checkpoint in
// Config.CheckpointDir and returns the restored round. It returns
// ckpt.ErrNoCheckpoint when the directory has none — callers treating a
// missing checkpoint as "start fresh" check for that sentinel.
func (r *Runner) ResumeLatest() (int, error) {
	if r.cfg.CheckpointDir == "" {
		return 0, fmt.Errorf("%w: ResumeLatest without a CheckpointDir", ErrConfig)
	}
	s, err := LoadLatestRunState(r.cfg.CheckpointDir)
	if err != nil {
		return 0, err
	}
	if err := s.RestoreInto(r); err != nil {
		return 0, err
	}
	return s.Round, nil
}
