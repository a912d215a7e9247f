package comm

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"time"

	"fedfteds/internal/tensor"
)

// ErrQuorum reports a round that finished with fewer client updates than
// the configured quorum requires.
var ErrQuorum = errors.New("comm: quorum not met")

// EngineConfig tunes which of the updates a round dispatched get folded. The
// zero value is the fail-stop synchronous round: every client must report and
// the engine waits for them indefinitely.
type EngineConfig struct {
	// RoundDeadline bounds one dispatch per peer: the broadcast write and the
	// update read must both finish inside it. A peer that blows the deadline
	// is timed out for the round but keeps its connection and is dispatched
	// again at the next round. Zero means no deadline: the engine waits
	// indefinitely (a hung peer then blocks a round that awaits it).
	RoundDeadline time.Duration
	// Quorum is the fraction of the round's cohort, in (0, 1], whose
	// updates must arrive for the round to succeed. Zero defaults to 1
	// (every cohort member must report) unless MinUpdates is set, in which
	// case the absolute floor alone is the requirement. At least one update
	// is always required.
	Quorum float64
	// MinUpdates is an absolute floor on folded updates per round: alone
	// (Quorum zero) it is the requirement itself, otherwise it compounds the
	// fractional Quorum. Unlike the fraction it is NOT clamped to the
	// round's client count: a floor the cohort can never meet fails the
	// round explicitly instead of silently deadlining forever, and fedserver
	// rejects such configurations at startup.
	MinUpdates int
	// Buffer is M, the FedBuff aggregation goal. Zero is the synchronous
	// round: it awaits every dispatch and succeeds on the quorum. A positive
	// Buffer closes the round as soon as M updates were folded and replaces
	// the quorum (the round fails when what is in flight can no longer fill
	// it); the remaining dispatches stay in flight across rounds and fold
	// later, stale.
	Buffer int
	// MaxStaleness discards updates whose staleness exceeds it; the sender
	// stays registered and receives the fresh model at its next dispatch.
	// Negative means no limit. Nothing is ever stale in a synchronous round.
	MaxStaleness int
}

// Validate checks the configuration bounds.
func (c EngineConfig) Validate() error {
	if c.Quorum < 0 || c.Quorum > 1 {
		return fmt.Errorf("%w: quorum %v outside [0, 1]", ErrProtocol, c.Quorum)
	}
	if c.MinUpdates < 0 {
		return fmt.Errorf("%w: negative min updates %d", ErrProtocol, c.MinUpdates)
	}
	if c.RoundDeadline < 0 {
		return fmt.Errorf("%w: negative round deadline %v", ErrProtocol, c.RoundDeadline)
	}
	if c.Buffer < 0 {
		return fmt.Errorf("%w: negative buffer %d", ErrProtocol, c.Buffer)
	}
	return nil
}

// flightResult is how one dispatch ended: the peer's update for the
// dispatched round, or the error that ended the wait for it.
type flightResult struct {
	id   int
	u    ClientUpdate
	late int // replies to earlier rounds read and discarded on the way
	err  error
}

// RoundEngine drives fault-tolerant federated rounds over a ServerSession.
// A round dispatches the model concurrently to the cohort members that have
// no dispatch outstanding, folds updates into the caller's aggregate as they
// arrive (O(state) server memory, decode overlapped with network wait), and
// closes when its goal was folded or what is still in flight can no longer
// reach what it needs. The synchronous round is the one that awaits
// everything it dispatched and needs a quorum of it; the buffered (FedBuff)
// round stops at Buffer updates, and what it leaves in flight folds in a
// later round at staleness Version() minus the version it was dispatched.
//
// Failed peers fall in two classes, mirroring the straggler semantics of
// the in-process simulator (internal/simtime): a deadline timeout is a
// straggler — it is dropped for the round but stays registered and is
// dispatched again at the next round (its late reply is discarded by the
// round check) — while a connection or protocol error is a crash: the
// connection is closed and the peer leaves the federation for good.
type RoundEngine struct {
	sess    *ServerSession
	cfg     EngineConfig
	version int
	// flights maps each peer with a dispatch outstanding to the version it
	// was dispatched. Every result on the results channel belongs to exactly
	// one entry, which is removed when the result is read; peers absent from
	// it are idle.
	flights map[int]int
	// results has room for one result per registered peer, so a flight that
	// outlives the last round still delivers and exits when Shutdown closes
	// its connection.
	results chan flightResult
	// buffer holds checkpoint-restored updates not yet folded.
	buffer []ClientUpdate
	// cohort is the duplicate check's scratch.
	cohort map[int]bool
}

// NewRoundEngine validates the configuration and wraps a session.
func NewRoundEngine(sess *ServerSession, cfg EngineConfig) (*RoundEngine, error) {
	if sess == nil {
		return nil, fmt.Errorf("%w: nil session", ErrProtocol)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RoundEngine{sess: sess, cfg: cfg, flights: make(map[int]int), cohort: make(map[int]bool)}, nil
}

// Restore warm-starts the engine from checkpointed state: the model version
// counter and any updates that had arrived but were not yet aggregated when
// the checkpoint was taken. Restored updates keep their version tags, so
// their staleness is re-measured against the current version at fold time.
// Must be called before the first round.
func (e *RoundEngine) Restore(version int, buffered []ClientUpdate) error {
	if e.results != nil { // allocated by the first round
		return fmt.Errorf("%w: restore after the first round", ErrProtocol)
	}
	if version < 0 {
		return fmt.Errorf("%w: negative model version %d", ErrProtocol, version)
	}
	for _, u := range buffered {
		if u.Version > version {
			return fmt.Errorf("%w: restored update of client %d from future version %d (current %d)",
				ErrProtocol, u.ClientID, u.Version, version)
		}
	}
	e.version = version
	e.buffer = append([]ClientUpdate(nil), buffered...)
	return nil
}

// Version returns the current model version — the number of rounds completed
// since version zero (checkpoints preserve the counter).
func (e *RoundEngine) Version() int { return e.version }

// Buffered returns a copy of the restored updates not yet folded, in order,
// for checkpointing mid-buffer.
func (e *RoundEngine) Buffered() []ClientUpdate {
	return append([]ClientUpdate(nil), e.buffer...)
}

// RoundOutcome reports one round's participation, the distributed analogue
// of the simulator's per-round participant count. Every dispatch that ended
// during the round appears in exactly one of Reported, Discarded, TimedOut
// and Dropped.
type RoundOutcome struct {
	// Round is the 1-based round index.
	Round int
	// Reported lists the clients whose updates were folded, ascending. A
	// client restored from a checkpointed buffer can coincide with a live
	// update of the same client, so entries may repeat.
	Reported []int
	// TimedOut lists clients dropped at the deadline; they stay registered
	// and are dispatched again at the next round.
	TimedOut []int
	// Dropped lists clients removed from the federation (dead connection,
	// protocol violation, or a rejected update).
	Dropped []int
	// LateDiscarded counts replies to earlier rounds — from clients that had
	// timed out of them — received and discarded during this round.
	LateDiscarded int
	// Failures maps each failed client to its error.
	Failures map[int]error
	// Version is the model version after the round.
	Version int
	// Discarded counts updates rejected as staler than MaxStaleness.
	Discarded int
}

// RunRound executes one round against every live client; see RunCohort.
func (e *RoundEngine) RunRound(rs RoundStart, fold func(ClientUpdate) error) (RoundOutcome, error) {
	return e.RunCohort(rs, e.sess.ClientIDs(), fold)
}

// RunCohort executes one round against the scheduled cohort (a subset of
// the live client IDs): rs, stamped with the current model version, goes to
// each cohort member without a dispatch outstanding, and updates — restored
// ones first, then arrivals in order — are folded via fold until the round
// closes. Clients outside the cohort are not contacted at all: no broadcast
// reaches them, their connections stay registered and deadline-free, and
// they simply block waiting for the next RoundStart. rs.Round must differ
// from every earlier round's: it is what matches a reply to its dispatch.
//
// fold is called from the caller's goroutine, never concurrently, and sees
// each update's Version set to the version the engine dispatched it (the
// peer's echo is not trusted). A fold error counts as that client's failure
// (the fold must then have left the aggregate untouched, as
// StreamAggregator.Add guarantees), so one bad update cannot poison the
// round.
//
// The round succeeds, and the version advances, when the quorum of the
// cohort — or Buffer updates — was folded; otherwise the joined per-client
// errors are returned.
func (e *RoundEngine) RunCohort(rs RoundStart, cohort []int, fold func(ClientUpdate) error) (RoundOutcome, error) {
	out := RoundOutcome{Round: rs.Round, Version: e.version, Failures: make(map[int]error)}
	if len(cohort) == 0 {
		return out, fmt.Errorf("%w: round %d: no clients remain", ErrQuorum, rs.Round)
	}
	clear(e.cohort)
	for _, id := range cohort {
		if _, ok := e.sess.conns[id]; !ok {
			return out, fmt.Errorf("%w: unknown client %d", ErrProtocol, id)
		}
		if e.cohort[id] {
			// A duplicated cohort entry would silently inflate the quorum
			// denominator; reject it instead.
			return out, fmt.Errorf("%w: duplicate client %d in cohort", ErrProtocol, id)
		}
		e.cohort[id] = true
	}
	rs.Version = e.version
	env, err := EncodeBody(MsgRoundStart, rs)
	if err != nil {
		return out, err
	}
	if len(e.flights) == 0 && cap(e.results) < len(e.sess.conns) {
		// No flight holds the channel, so it can follow a session that
		// re-admissions grew.
		e.results = make(chan flightResult, len(e.sess.conns))
	}

	// The buffered round stops at, and needs, the buffer; the synchronous one
	// awaits everything in flight and needs the quorum of its cohort.
	goal, need := e.cfg.Buffer, e.cfg.Buffer
	if goal == 0 {
		goal = math.MaxInt
		need = quorumCount(e.cfg.Quorum, len(cohort))
		if e.cfg.Quorum == 0 && e.cfg.MinUpdates > 0 {
			// An explicit absolute floor with no fraction set is the requirement
			// itself; the zero-quorum default (all clients) would swallow it.
			need = e.cfg.MinUpdates
		} else if e.cfg.MinUpdates > need {
			need = e.cfg.MinUpdates
		}
	}
	// Restored updates fold before anything is dispatched, so a peer is only
	// ever dropped with no flight of its own outstanding.
	folded := 0
	for len(e.buffer) > 0 && folded < goal {
		u := e.buffer[0]
		e.buffer = e.buffer[1:]
		if e.foldOne(&out, u, fold) {
			folded++
		}
	}
	for _, id := range cohort {
		conn, live := e.sess.conns[id]
		if _, busy := e.flights[id]; busy || !live {
			continue
		}
		e.flights[id] = e.version
		// One goroutine per dispatch sends the broadcast and reads the reply,
		// so broadcast wall time is the slowest single send, not the sum, and
		// slow peers never delay fast ones. It touches only what it is handed
		// — the session's maps stay single-writer (this goroutine).
		go e.dispatch(id, conn, e.sess.relays[id], env, rs.Round)
	}

	// Fold in arrival order: the aggregate stays O(state) and each decode
	// overlaps the remaining peers' network wait. The round closes at its
	// goal, when nothing is left in flight, or when what is can no longer
	// reach what the round needs.
	for folded < goal && len(e.flights) > 0 && folded+len(e.flights) >= need {
		r := <-e.results
		version := e.flights[r.id]
		delete(e.flights, r.id)
		out.LateDiscarded += r.late
		if r.err != nil {
			e.fail(&out, r.id, r.err)
			continue
		}
		r.u.Version = version
		if e.foldOne(&out, r.u, fold) {
			folded++
		}
	}
	sort.Ints(out.Reported)
	sort.Ints(out.TimedOut)
	sort.Ints(out.Dropped)
	if folded < need {
		errs := []error{fmt.Errorf("%w: round %d: %d of %d clients reported, need %d, %d still in flight",
			ErrQuorum, rs.Round, folded, len(cohort), need, len(e.flights))}
		for _, id := range out.TimedOut {
			errs = append(errs, out.Failures[id])
		}
		for _, id := range out.Dropped {
			errs = append(errs, out.Failures[id])
		}
		return out, errors.Join(errs...)
	}
	e.version++
	out.Version = e.version
	return out, nil
}

// dispatch is one flight: send the round to one peer and read its reply,
// both under RoundDeadline. The deadline is armed here because a pipe fixes
// its expiry when Send or Recv is entered, and disarmed before the result is
// reported because the peer's next dispatch may follow the result at once —
// so the gap before it (or the shutdown frames) is never bounded by this one.
func (e *RoundEngine) dispatch(id int, conn Conn, relay bool, env Envelope, round int) {
	var dc DeadlineConn
	if e.cfg.RoundDeadline > 0 {
		dc, _ = conn.(DeadlineConn)
	}
	if dc != nil {
		_ = dc.SetDeadline(time.Now().Add(e.cfg.RoundDeadline))
	}
	r := flightResult{id: id}
	r.u, r.late, r.err = exchange(id, conn, relay, env, round)
	if dc != nil {
		_ = dc.SetDeadline(time.Time{})
	}
	e.results <- r
}

// exchange sends env and reads until the peer's update for round arrives,
// counting the replies to earlier rounds it discards on the way. A relay
// answers with a RegionUpdate, reshaped here into the ClientUpdate everything
// downstream understands.
func exchange(id int, conn Conn, relay bool, env Envelope, round int) (u ClientUpdate, late int, err error) {
	if err := conn.Send(env); err != nil {
		return u, 0, fmt.Errorf("comm: round %d to client %d: %w", round, id, err)
	}
	expect := MsgClientUpdate
	if relay {
		expect = MsgRegionUpdate
	}
	for {
		env, err := conn.Recv()
		if err != nil {
			return u, late, fmt.Errorf("comm: update from client %d: %w", id, err)
		}
		if env.Type != expect {
			return u, late, fmt.Errorf("%w: expected %v from %d, got %v", ErrProtocol, expect, id, env.Type)
		}
		if relay {
			var ru RegionUpdate
			err = DecodeBody(env, &ru)
			u = regionAsUpdate(ru)
		} else {
			err = DecodeBody(env, &u)
		}
		if err != nil {
			return u, late, err
		}
		if u.Round < round {
			// Stale work from a round this client timed out of: discard it
			// and keep waiting for the current round's update.
			late++
			continue
		}
		if u.Round != round || u.ClientID != id {
			return u, late, fmt.Errorf("%w: client %d answered round %d as client %d during round %d",
				ErrProtocol, id, u.Round, u.ClientID, round)
		}
		return u, late, nil
	}
}

// regionAsUpdate reshapes a relay's folded delta into the ClientUpdate the
// aggregation and strategy layers already understand: the region is one
// heavyweight participant whose selected-sample mass is the sum over its
// reporting leaves, which reproduces the flat federation's weighted average
// exactly under the default selected-size weighting.
func regionAsUpdate(ru RegionUpdate) ClientUpdate {
	return ClientUpdate{
		ClientID:     ru.RelayID,
		Round:        ru.Round,
		Version:      ru.Version,
		State:        ru.State,
		Codec:        ru.Codec,
		NumSelected:  ru.NumSelected,
		TrainSeconds: ru.TrainSeconds,
		TrainLoss:    ru.TrainLoss,
		MeanEntropy:  ru.MeanEntropy,
	}
}

// foldOne folds one update unless it is too stale, which is counted and
// costs its sender nothing. A fold error is its sender's failure. Reports
// whether the update was folded.
func (e *RoundEngine) foldOne(out *RoundOutcome, u ClientUpdate, fold func(ClientUpdate) error) bool {
	if e.cfg.MaxStaleness >= 0 && e.version-u.Version > e.cfg.MaxStaleness {
		out.Discarded++
		return false
	}
	if err := fold(u); err != nil {
		e.fail(out, u.ClientID, fmt.Errorf("comm: folding update from client %d: %w", u.ClientID, err))
		return false
	}
	out.Reported = append(out.Reported, u.ClientID)
	return true
}

// fail records one peer's failure: a timeout keeps the peer, anything else
// closes its connection and removes it from the session.
func (e *RoundEngine) fail(out *RoundOutcome, id int, err error) {
	out.Failures[id] = err
	if isTimeout(err) {
		out.TimedOut = append(out.TimedOut, id)
		return
	}
	out.Dropped = append(out.Dropped, id)
	if conn, live := e.sess.conns[id]; live {
		_ = conn.Close()
		delete(e.sess.conns, id)
	}
}

// quorumCount converts a quorum fraction into a required update count.
func quorumCount(q float64, n int) int {
	if q <= 0 {
		q = 1
	}
	need := int(math.Ceil(q * float64(n)))
	if need < 1 {
		need = 1
	}
	if need > n {
		need = n
	}
	return need
}

// isTimeout distinguishes a straggler (deadline exceeded, client may
// recover) from a dead or misbehaving connection.
func isTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// WeightFunc maps one client update to its aggregation weight. It runs
// before the update touches the aggregate, so an error (or a non-positive
// weight) rejects the update without poisoning the round.
type WeightFunc func(ClientUpdate) (float64, error)

// StreamAggregator folds client updates into per-tensor weighted sums as
// they arrive — by default the selected-size weighting of paper Eq. 5, or
// any strategy-supplied WeightFunc. Each state tensor is averaged, with its
// own weight total, over the updates that covered it: an update covers every
// tensor unless the aggregator was built over a layout and the update
// declares a Groups subset, in which case groups outside the subset never
// contribute (they also shipped zero bytes — the update's State holds only
// the covered groups' tensors). Only the running sums are retained, so
// server memory is O(state) regardless of federation size.
//
// The aggregator is reusable round after round with zero steady-state
// allocations: decode buffers, accumulators, the coverage mask and the
// result slice all persist. Consequently the tensors Finish returns are
// owned by the aggregator and stay valid only until the next Add — callers
// copy them into the model (or encode them onto the wire) before starting
// the next round.
type StreamAggregator struct {
	weigh  WeightFunc
	gIndex map[string]int // group name → canonical position; nil without a layout
	tgroup []int          // canonical group position of each layout tensor; nil without a layout
	acc    []*tensor.Tensor
	totals []float64
	sumW   float64
	count  int

	covered []bool           // per-group coverage of the update being folded
	full    bool             // the update being folded covers every tensor
	scratch []*tensor.Tensor // decode buffer, reused across Adds
	out     []*tensor.Tensor // Finish result slice, reused across rounds
	fb      []*tensor.Tensor // fallback copies for uncovered tensors

	codec      Codec            // session uplink codec; nil is the legacy identity path
	ref        []*tensor.Tensor // broadcast state, parallel to the full layout
	refScratch []*tensor.Tensor // covered subset of ref, rebuilt per Add without allocating
}

// NewStreamAggregator returns an empty whole-state aggregator with the
// default selected-size weighting.
func NewStreamAggregator() *StreamAggregator { return &StreamAggregator{} }

// NewWeightedStreamAggregator returns an empty whole-state aggregator whose
// per-update weights come from weigh (nil falls back to selected-size
// weighting). The strategy layer uses this to route its WeighUpdates rule
// into the streaming path.
func NewWeightedStreamAggregator(weigh WeightFunc) *StreamAggregator {
	return &StreamAggregator{weigh: weigh}
}

// NewMaskedStreamAggregator builds an aggregator that also accepts
// partially-trained updates over the given full communicated layout: groups
// is the canonical communicated group list (RoundStart.Groups) and layout
// names, per tensor of the full state blob, the group it belongs to
// (models.GroupStateLayout). weigh may be nil for the default selected-size
// weighting.
func NewMaskedStreamAggregator(weigh WeightFunc, groups, layout []string) (*StreamAggregator, error) {
	if len(groups) == 0 || len(layout) == 0 {
		return nil, fmt.Errorf("%w: masked aggregator needs groups and a layout", ErrProtocol)
	}
	gIndex := make(map[string]int, len(groups))
	for i, g := range groups {
		if _, dup := gIndex[g]; dup {
			return nil, fmt.Errorf("%w: duplicate group %q", ErrProtocol, g)
		}
		gIndex[g] = i
	}
	tgroup := make([]int, len(layout))
	seen := make([]bool, len(groups))
	for ti, g := range layout {
		gi, ok := gIndex[g]
		if !ok {
			return nil, fmt.Errorf("%w: layout group %q not in group list", ErrProtocol, g)
		}
		tgroup[ti], seen[gi] = gi, true
	}
	for gi, g := range groups {
		if !seen[gi] {
			return nil, fmt.Errorf("%w: group %q has no tensors in the layout", ErrProtocol, g)
		}
	}
	return &StreamAggregator{
		weigh:   weigh,
		gIndex:  gIndex,
		tgroup:  tgroup,
		acc:     make([]*tensor.Tensor, len(layout)),
		totals:  make([]float64, len(layout)),
		covered: make([]bool, len(groups)),
	}, nil
}

// SetCodec installs the session's negotiated uplink codec and the round's
// broadcast state. A nil codec is the legacy identity path, byte-for-byte
// unchanged; an update whose codec echo disagrees with the session codec is
// rejected before its bytes are touched. ref, tensor-parallel to the full
// layout, serves three purposes at once: delta codecs decode each update
// against the covered subset of it (the exact reference the client encoded
// against), every update — the first included — is validated against its
// tensor count and shapes before any sum is touched, and tensors no update
// covered fall back to it in Finish. A nil ref keeps the reference-free
// mode, where the first folded update defines count and shapes. Call before
// the round's first Add; the ref tensors may be live views into the server's
// model, which is safe because every consumer applies the aggregate only
// after Finish.
func (a *StreamAggregator) SetCodec(c Codec, ref []*tensor.Tensor) {
	a.codec, a.ref = c, ref
}

// setCovered records which tensors the update being folded covers. An empty
// declaration is the whole-state contract: every broadcast group trained;
// without a layout there is nothing to resolve a declaration against, so
// every update must ship the whole state. A subset must name known groups
// only, without duplicates, in canonical (ascending) order, so its tensor
// layout is exactly the full layout filtered by membership.
func (a *StreamAggregator) setCovered(clientID int, declared []string) error {
	a.full = len(declared) == 0 || a.tgroup == nil
	if a.full {
		return nil
	}
	for i := range a.covered {
		a.covered[i] = false
	}
	prev := -1
	for _, g := range declared {
		gi, ok := a.gIndex[g]
		if !ok {
			return fmt.Errorf("%w: client %d declared unknown group %q", ErrProtocol, clientID, g)
		}
		if a.covered[gi] {
			return fmt.Errorf("%w: client %d declared group %q twice", ErrProtocol, clientID, g)
		}
		if gi <= prev {
			return fmt.Errorf("%w: client %d declared groups out of canonical order", ErrProtocol, clientID)
		}
		prev = gi
		a.covered[gi] = true
	}
	return nil
}

// covers reports whether the update being folded ships layout tensor ti.
func (a *StreamAggregator) covers(ti int) bool { return a.full || a.covered[a.tgroup[ti]] }

// Add decodes one update and folds its covered tensors into the per-tensor
// sums under the aggregator's weighting. The fold is atomic: every
// validation (weight, group declaration, codec echo, tensor count, shapes,
// finite values) happens before any sum is touched, so on error the
// aggregate is unchanged and the caller can drop the client yet keep the
// round. Decoding reuses the aggregator's scratch tensors, so a warmed-up
// aggregator folds without allocating.
func (a *StreamAggregator) Add(u ClientUpdate) error {
	if u.NumSelected <= 0 {
		return fmt.Errorf("%w: client %d reports %d selected samples", ErrProtocol, u.ClientID, u.NumSelected)
	}
	w64 := float64(u.NumSelected)
	if a.weigh != nil {
		var err error
		if w64, err = a.weigh(u); err != nil {
			return fmt.Errorf("comm: weighing update from client %d: %w", u.ClientID, err)
		}
		if w64 <= 0 || math.IsNaN(w64) || math.IsInf(w64, 0) {
			return fmt.Errorf("%w: client %d weighed %v", ErrProtocol, u.ClientID, w64)
		}
	}
	if a.ref != nil && a.acc != nil && len(a.ref) != len(a.acc) {
		return fmt.Errorf("%w: broadcast reference has %d tensors, layout %d", ErrProtocol, len(a.ref), len(a.acc))
	}
	if err := a.setCovered(u.ClientID, u.Groups); err != nil {
		return err
	}
	if err := checkCodecEcho(a.codec, u.Codec, u.ClientID); err != nil {
		return err
	}
	var ts []*tensor.Tensor
	var err error
	if a.codec != nil {
		ts, err = a.codec.Decode(a.coveredRef(), a.scratch, u.State)
	} else {
		ts, err = DecodeTensorsReuse(a.scratch, u.State)
	}
	if err != nil {
		return fmt.Errorf("comm: aggregate client %d: %w", u.ClientID, err)
	}
	a.scratch = ts[:cap(ts)]
	// The layout fixes the tensor count, else the broadcast reference, else
	// (reference-free mode) the first update ever folded.
	n := len(a.acc)
	switch {
	case a.acc != nil:
	case a.ref != nil:
		n = len(a.ref)
	default:
		n = len(ts)
	}
	wantN := n
	if !a.full {
		wantN = 0
		for ti := range a.tgroup {
			if a.covers(ti) {
				wantN++
			}
		}
	}
	if len(ts) != wantN {
		return fmt.Errorf("%w: client %d sent %d tensors for groups %v, want %d",
			ErrProtocol, u.ClientID, len(ts), u.Groups, wantN)
	}
	// Validate every shape and value before folding anything: shapes against
	// the broadcast reference when there is one, else against what earlier
	// updates set; values for NaN and Inf, one of which would otherwise
	// spread through the sums into the global model and every checkpoint
	// after it.
	ci := 0
	for ti := 0; ti < n; ti++ {
		if !a.covers(ti) {
			continue
		}
		var want *tensor.Tensor
		if a.ref != nil {
			want = a.ref[ti]
		} else if a.acc != nil {
			want = a.acc[ti]
		}
		if want != nil && !want.SameShape(ts[ci]) {
			return fmt.Errorf("%w: client %d tensor %d shape mismatch", ErrProtocol, u.ClientID, ti)
		}
		if !ts[ci].IsFinite() {
			return fmt.Errorf("%w: client %d tensor %d holds NaN or Inf", ErrProtocol, u.ClientID, ti)
		}
		ci++
	}
	if a.acc == nil {
		a.acc, a.totals = make([]*tensor.Tensor, n), make([]float64, n)
	}
	w := float32(w64)
	ci = 0
	for ti := range a.acc {
		if !a.covers(ti) {
			continue
		}
		switch {
		case a.acc[ti] == nil:
			// First contribution ever: allocate the accumulator once for
			// the aggregator's lifetime.
			a.acc[ti] = ts[ci].Clone()
			a.acc[ti].Scale(w)
		case a.totals[ti] == 0:
			// First contribution this round: overwrite the retained
			// accumulator. Same bits as Clone-then-Scale.
			if err := a.acc[ti].ScaleFrom(w, ts[ci]); err != nil {
				return err
			}
		default:
			if err := a.acc[ti].Axpy(w, ts[ci]); err != nil {
				return err
			}
		}
		a.totals[ti] += w64
		ci++
	}
	a.sumW += w64
	a.count++
	return nil
}

// coveredRef filters the broadcast reference down to the tensors the update
// being folded ships — exactly the subset the client encoded against. The
// slice is reused across Adds.
func (a *StreamAggregator) coveredRef() []*tensor.Tensor {
	if a.ref == nil || a.full {
		return a.ref
	}
	rs := a.refScratch[:0]
	for ti := range a.ref {
		if a.covers(ti) {
			rs = append(rs, a.ref[ti])
		}
	}
	a.refScratch = rs
	return rs
}

// checkCodecEcho rejects an update whose codec echo disagrees with the
// session codec, before any payload byte is interpreted. Empty echoes and
// a nil session codec both mean identity, so pre-codec peers and codec-
// aware ones running identity validate interchangeably.
func checkCodecEcho(codec Codec, echo string, clientID int) error {
	want := CodecIdentity
	if codec != nil {
		want = codec.Name()
	}
	got := echo
	if got == "" {
		got = CodecIdentity
	}
	if got != want {
		return fmt.Errorf("%w: client %d sent codec %q, session runs %q", ErrProtocol, clientID, got, want)
	}
	return nil
}

// Updates returns how many updates have been folded so far.
func (a *StreamAggregator) Updates() int { return a.count }

// Total returns the summed per-client aggregation weight folded so far
// (each client counted once, regardless of how many layers it covered). A
// relay reads it before Finish to stamp the outgoing RegionUpdate with the
// region's weight mass.
func (a *StreamAggregator) Total() float64 { return a.sumW }

// Finish normalizes each tensor by its own weight total and resets the
// aggregator for the next round. Tensors no folded update covered fall back
// to a copy of the broadcast state — averaging nothing leaves the layer
// where it was. It fails when no update at all was folded. The returned
// tensors are owned by the aggregator and valid only until the next Add.
func (a *StreamAggregator) Finish() ([]*tensor.Tensor, error) {
	if a.count == 0 {
		return nil, fmt.Errorf("comm: aggregate: no client updates")
	}
	if cap(a.out) < len(a.acc) {
		a.out = make([]*tensor.Tensor, len(a.acc))
	}
	out := a.out[:len(a.acc)]
	for ti := range a.acc {
		if a.totals[ti] > 0 {
			a.acc[ti].Scale(float32(1 / a.totals[ti]))
			out[ti] = a.acc[ti]
			a.totals[ti] = 0
			continue
		}
		if len(a.ref) != len(a.acc) {
			return nil, fmt.Errorf("%w: tensor %d uncovered and the broadcast state has %d tensors, layout %d",
				ErrProtocol, ti, len(a.ref), len(a.acc))
		}
		if a.fb == nil {
			a.fb = make([]*tensor.Tensor, len(a.acc))
		}
		a.fb[ti] = tensor.Ensure(a.fb[ti], a.ref[ti].Shape()...)
		if err := a.fb[ti].CopyFrom(a.ref[ti]); err != nil {
			return nil, err
		}
		out[ti] = a.fb[ti]
	}
	a.sumW, a.count = 0, 0
	return out, nil
}
