package comm

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"fedfteds/internal/tensor"
)

// ErrQuorum reports a round that finished with fewer client updates than
// the configured quorum requires.
var ErrQuorum = errors.New("comm: quorum not met")

// EngineConfig tunes the fault tolerance of a RoundEngine.
type EngineConfig struct {
	// RoundDeadline bounds one full round per client: the broadcast write
	// and the update read must both finish inside it. A client that blows
	// the deadline is dropped for the round but keeps its connection and
	// may rejoin at the next round. Zero means no deadline: the engine
	// waits indefinitely (a hung client then blocks the round).
	RoundDeadline time.Duration
	// Quorum is the fraction of the round's live clients, in (0, 1], whose
	// updates must arrive for the round to succeed. Zero defaults to 1
	// (every live client must report) unless MinUpdates is set, in which
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
	return nil
}

// RoundEngine drives fault-tolerant federated rounds over a ServerSession.
// It broadcasts concurrently, bounds each round with a deadline, folds
// updates into the caller's aggregate as they arrive (O(state) server
// memory, decode overlapped with network wait), and completes the round as
// long as a quorum of clients reported.
//
// Failed clients fall in two classes, mirroring the straggler semantics of
// the in-process simulator (internal/simtime): a deadline timeout is a
// straggler — it is dropped for the round but stays registered and may
// rejoin at the next round (its stale update is discarded by the round
// check) — while a connection or protocol error is a crash: the connection
// is closed and the client leaves the federation for good.
type RoundEngine struct {
	sess *ServerSession
	cfg  EngineConfig
}

// NewRoundEngine validates the configuration and wraps a session.
func NewRoundEngine(sess *ServerSession, cfg EngineConfig) (*RoundEngine, error) {
	if sess == nil {
		return nil, fmt.Errorf("%w: nil session", ErrProtocol)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RoundEngine{sess: sess, cfg: cfg}, nil
}

// RoundOutcome reports one round's participation — a synchronous round of
// the RoundEngine or one buffered aggregation of the AsyncEngine — the
// distributed analogue of the simulator's per-round participant count.
type RoundOutcome struct {
	// Round is the 1-based round (or aggregation) index.
	Round int
	// Reported lists the clients whose updates were folded, ascending. In an
	// aggregation, a client restored from a checkpointed buffer can coincide
	// with a live update of the same client, so entries may repeat.
	Reported []int
	// TimedOut lists clients dropped at the deadline; they stay registered
	// and may rejoin at the next round. The async engine has no timeout
	// class: a slow client goes stale instead.
	TimedOut []int
	// Dropped lists clients removed from the federation (dead connection,
	// protocol violation, or a rejected update).
	Dropped []int
	// LateDiscarded counts stale updates from earlier rounds that were
	// received and discarded during this synchronous round.
	LateDiscarded int
	// Failures maps each failed client to its error.
	Failures map[int]error
	// Version is the model version after an aggregation; synchronous rounds
	// leave it zero.
	Version int
	// Staleness maps each client folded by an aggregation to the staleness
	// of its (latest) folded update; nil in synchronous rounds.
	Staleness map[int]int
	// Discarded counts updates an aggregation rejected as too stale.
	Discarded int
}

// RunRound executes one round against every live client: concurrent
// broadcast of rs, then one update per client, each folded via fold as it
// arrives. fold is called from a single goroutine, never concurrently. A
// fold error counts as that client's failure (the fold must then have left
// the aggregate untouched, as StreamAggregator.Add guarantees), so one bad
// update cannot poison the round.
//
// The round succeeds when at least quorum·(live clients) updates were
// folded; otherwise the joined per-client errors are returned.
func (e *RoundEngine) RunRound(rs RoundStart, fold func(ClientUpdate) error) (RoundOutcome, error) {
	return e.sess.runRound(rs, e.sess.ClientIDs(), e.cfg, fold)
}

// RunCohort executes one round against only the scheduled cohort (a subset
// of the live client IDs). Clients outside the cohort are not contacted at
// all: no broadcast reaches them, their connections stay registered and
// deadline-free, and they simply block waiting for the next RoundStart —
// rejoining whenever a later cohort includes them. Quorum applies to the
// cohort, not the full federation.
func (e *RoundEngine) RunCohort(rs RoundStart, cohort []int, fold func(ClientUpdate) error) (RoundOutcome, error) {
	return e.sess.runRound(rs, cohort, e.cfg, fold)
}

// RunRegionRound executes one round against mid-tier relays instead of leaf
// clients: the broadcast is identical, but each participant answers with a
// pre-folded RegionUpdate rather than a ClientUpdate. Straggler and crash
// semantics match RunRound, with quorum counted over regions.
func (e *RoundEngine) RunRegionRound(rs RoundStart, relayIDs []int, fold func(RegionUpdate) error) (RoundOutcome, error) {
	return runEngineRound(e.sess, rs, relayIDs, e.cfg, MsgRegionUpdate, fold)
}

// roundReply is implemented by the per-round answer frames — ClientUpdate
// from leaf clients, RegionUpdate from relays — so one engine core drives
// both tiers of a relay tree.
type roundReply interface {
	senderID() int
	roundIndex() int
}

func (u ClientUpdate) senderID() int   { return u.ClientID }
func (u ClientUpdate) roundIndex() int { return u.Round }
func (u RegionUpdate) senderID() int   { return u.RelayID }
func (u RegionUpdate) roundIndex() int { return u.Round }

// runRound is the shared engine core; see RoundEngine.RunRound.
func (s *ServerSession) runRound(rs RoundStart, clientIDs []int, cfg EngineConfig, fold func(ClientUpdate) error) (RoundOutcome, error) {
	return runEngineRound(s, rs, clientIDs, cfg, MsgClientUpdate, fold)
}

// runEngineRound is the message-type-generic engine core; see
// RoundEngine.RunRound for the contract.
func runEngineRound[T roundReply](s *ServerSession, rs RoundStart, clientIDs []int, cfg EngineConfig, expect MsgType, fold func(T) error) (RoundOutcome, error) {
	out := RoundOutcome{Round: rs.Round, Failures: make(map[int]error)}
	if len(clientIDs) == 0 {
		return out, fmt.Errorf("%w: round %d: no clients remain", ErrQuorum, rs.Round)
	}
	conns := make(map[int]Conn, len(clientIDs))
	for _, id := range clientIDs {
		conn, ok := s.conns[id]
		if !ok {
			return out, fmt.Errorf("%w: unknown client %d", ErrProtocol, id)
		}
		if _, dup := conns[id]; dup {
			// A duplicated cohort entry would silently inflate the quorum
			// denominator; reject it instead.
			return out, fmt.Errorf("%w: duplicate client %d in cohort", ErrProtocol, id)
		}
		conns[id] = conn
	}
	env, err := EncodeBody(MsgRoundStart, rs)
	if err != nil {
		return out, err
	}

	// Arm (or clear) every connection's deadline for the whole round.
	var deadline time.Time
	if cfg.RoundDeadline > 0 {
		deadline = time.Now().Add(cfg.RoundDeadline)
	}
	for _, conn := range conns {
		if dc, ok := conn.(DeadlineConn); ok {
			_ = dc.SetDeadline(deadline)
		}
	}

	// One goroutine per client sends the broadcast and reads the reply, so
	// broadcast wall time is the slowest single send, not the sum, and slow
	// clients never delay fast ones. Goroutines only touch their captured
	// conn — the conns map stays single-writer (this goroutine).
	type result struct {
		id  int
		u   T
		err error
	}
	results := make(chan result, len(conns))
	var late atomic.Int64
	for id, conn := range conns {
		go func(id int, conn Conn) {
			if err := conn.Send(env); err != nil {
				results <- result{id: id, err: fmt.Errorf("comm: round %d to client %d: %w", rs.Round, id, err)}
				return
			}
			for {
				env, err := conn.Recv()
				if err != nil {
					results <- result{id: id, err: fmt.Errorf("comm: update from client %d: %w", id, err)}
					return
				}
				if env.Type != expect {
					results <- result{id: id, err: fmt.Errorf("%w: expected %v from %d, got %v", ErrProtocol, expect, id, env.Type)}
					return
				}
				var u T
				if err := DecodeBody(env, &u); err != nil {
					results <- result{id: id, err: err}
					return
				}
				if u.roundIndex() < rs.Round {
					// Stale work from a round this client missed: discard
					// it and keep waiting for the current round's update.
					late.Add(1)
					continue
				}
				if u.roundIndex() != rs.Round || u.senderID() != id {
					results <- result{id: id, err: fmt.Errorf("%w: client %d answered round %d as client %d during round %d",
						ErrProtocol, id, u.roundIndex(), u.senderID(), rs.Round)}
					return
				}
				results <- result{id: id, u: u}
				return
			}
		}(id, conn)
	}

	// Fold updates in arrival order: the aggregate stays O(state) and each
	// decode overlaps the remaining clients' network wait.
	for range conns {
		r := <-results
		if r.err == nil {
			if err := fold(r.u); err != nil {
				r.err = fmt.Errorf("comm: folding update from client %d: %w", r.id, err)
			}
		}
		if r.err != nil {
			out.Failures[r.id] = r.err
			if isTimeout(r.err) {
				out.TimedOut = append(out.TimedOut, r.id)
			} else {
				out.Dropped = append(out.Dropped, r.id)
				_ = conns[r.id].Close()
				delete(s.conns, r.id)
			}
			continue
		}
		out.Reported = append(out.Reported, r.id)
	}
	out.LateDiscarded = int(late.Load())
	sort.Ints(out.Reported)
	sort.Ints(out.TimedOut)
	sort.Ints(out.Dropped)

	// Disarm the round deadline on surviving connections so the gap before
	// the next round (or the shutdown frames) is not bounded by this one.
	if !deadline.IsZero() {
		for id, conn := range conns {
			if _, alive := s.conns[id]; !alive {
				continue
			}
			if dc, ok := conn.(DeadlineConn); ok {
				_ = dc.SetDeadline(time.Time{})
			}
		}
	}

	need := quorumCount(cfg.Quorum, len(clientIDs))
	if cfg.Quorum == 0 && cfg.MinUpdates > 0 {
		// An explicit absolute floor with no fraction set is the requirement
		// itself; the zero-quorum default (all clients) would swallow it.
		need = cfg.MinUpdates
	} else if cfg.MinUpdates > need {
		need = cfg.MinUpdates
	}
	if len(out.Reported) < need {
		errs := []error{fmt.Errorf("%w: round %d: %d of %d clients reported, need %d",
			ErrQuorum, rs.Round, len(out.Reported), len(clientIDs), need)}
		for _, id := range out.TimedOut {
			errs = append(errs, out.Failures[id])
		}
		for _, id := range out.Dropped {
			errs = append(errs, out.Failures[id])
		}
		return out, errors.Join(errs...)
	}
	return out, nil
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
