package comm

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// StalenessFunc maps an update's staleness s — the number of aggregations
// the global model advanced while the client was training, s >= 0 — to a
// multiplicative weight discount λ(s) in (0, 1]. The engine is agnostic to
// the rule; internal/strategy provides the flag-constructible family
// (identity, 1/sqrt(1+s), polynomial).
type StalenessFunc func(staleness int) float64

// AsyncConfig tunes the buffered asynchronous (FedBuff-style) engine.
type AsyncConfig struct {
	// Buffer is M, the aggregation goal: the server applies an aggregate as
	// soon as M updates have been buffered. Buffer equal to the federation
	// size with an identity Weigh reduces the engine to the synchronous
	// round loop bit for bit.
	Buffer int
	// MaxStaleness discards updates whose staleness exceeds it; the sending
	// client simply receives the fresh model at the next dispatch. Negative
	// means no limit (every update is folded, however stale).
	MaxStaleness int
	// Weigh is λ(s); nil means identity (no staleness discount).
	Weigh StalenessFunc
	// AggDeadline bounds the wait for one aggregation's worth of updates.
	// Zero means wait indefinitely.
	AggDeadline time.Duration
}

// Validate checks the configuration bounds.
func (c AsyncConfig) Validate() error {
	if c.Buffer < 1 {
		return fmt.Errorf("%w: buffer %d, need at least 1", ErrProtocol, c.Buffer)
	}
	if c.AggDeadline < 0 {
		return fmt.Errorf("%w: negative aggregation deadline %v", ErrProtocol, c.AggDeadline)
	}
	return nil
}

// asyncResult is one reader goroutine event: an update or a terminal error.
type asyncResult struct {
	id  int
	u   ClientUpdate
	err error
}

// AsyncEngine drives FedBuff-style buffered asynchronous aggregation over a
// ServerSession. Each connected client trains continuously against the
// newest model version it has seen; the server buffers version-tagged
// updates as they arrive and applies an aggregate whenever Buffer of them
// accumulated, discounting stale contributions by λ(staleness). Clients are
// re-dispatched the fresh model only at aggregation boundaries, so with
// Buffer equal to the federation size the engine degenerates to exactly the
// synchronous round loop: every client trains version v, the buffer fills
// once, and the fold order is arrival order — the same arithmetic the
// RoundEngine performs.
//
// One reader goroutine per client owns the connection's receive side for
// the engine's whole lifetime; dispatch sends happen from the caller's
// goroutine (Conn implementations serialize sends and receives
// independently). A connection error drops the client permanently, exactly
// like the synchronous engine's crash class; there is no per-client timeout
// class because a slow client never gates an aggregation — it just goes
// stale.
type AsyncEngine struct {
	sess    *ServerSession
	cfg     AsyncConfig
	version int
	// inflight maps each client currently training to the version it was
	// dispatched. Clients absent from inflight are idle: they reported (or
	// were never dispatched) and wait for the next aggregation's dispatch.
	inflight map[int]int
	// dead remembers dropped clients so a lingering reader event (the
	// connection-closed error following a rejected update) is not
	// re-reported in a later aggregation.
	dead    map[int]bool
	buffer  []ClientUpdate
	results chan asyncResult
	started bool
}

// NewAsyncEngine validates the configuration and wraps a session.
func NewAsyncEngine(sess *ServerSession, cfg AsyncConfig) (*AsyncEngine, error) {
	if sess == nil {
		return nil, fmt.Errorf("%w: nil session", ErrProtocol)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AsyncEngine{
		sess:     sess,
		cfg:      cfg,
		inflight: make(map[int]int),
		dead:     make(map[int]bool),
		results:  make(chan asyncResult, 2*len(sess.conns)+2),
	}, nil
}

// Restore warm-starts the engine from checkpointed async state: the model
// version counter and any updates that were buffered but not yet
// aggregated when the checkpoint was taken. Restored updates keep their
// original version tags, so their staleness is re-measured against the
// current version at fold time. Must be called before the first
// RunAggregation.
func (e *AsyncEngine) Restore(version int, buffered []ClientUpdate) error {
	if e.started {
		return fmt.Errorf("%w: async restore after first aggregation", ErrProtocol)
	}
	if version < 0 {
		return fmt.Errorf("%w: negative model version %d", ErrProtocol, version)
	}
	e.version = version
	e.buffer = append([]ClientUpdate(nil), buffered...)
	return nil
}

// Version returns the current model version — the number of aggregations
// applied since version zero (checkpoints preserve the counter).
func (e *AsyncEngine) Version() int { return e.version }

// Buffered returns a copy of the updates received but not yet aggregated,
// in arrival order, for checkpointing mid-buffer.
func (e *AsyncEngine) Buffered() []ClientUpdate {
	return append([]ClientUpdate(nil), e.buffer...)
}

// RunAggregation performs one buffered aggregation: it dispatches rs
// (stamped with the current model version) to every idle client, then folds
// buffered and arriving updates — each weighted by λ(staleness) — until
// Buffer of them accumulated. fold runs on the caller's goroutine, never
// concurrently; a fold error rejects that update without poisoning the
// aggregation (the fold must leave the aggregate untouched on error, as
// StreamAggregator.Add guarantees). The engine advances its version only
// after the buffer goal was met.
func (e *AsyncEngine) RunAggregation(agg int, rs RoundStart, fold func(u ClientUpdate, lambda float64) error) (RoundOutcome, error) {
	out := RoundOutcome{Round: agg, Version: e.version, Staleness: make(map[int]int), Failures: make(map[int]error)}
	if !e.started {
		// The engine owns every connection's receive side from the first
		// aggregation on: one long-lived reader per client.
		for id, conn := range e.sess.conns {
			go e.read(id, conn)
		}
		e.started = true
	}

	rs.Round = agg
	rs.Version = e.version
	env, err := EncodeBody(MsgRoundStart, rs)
	if err != nil {
		return out, err
	}
	// Dispatch the current model to every idle client. Clients still
	// training keep their stale version; their eventual updates are
	// discounted, not awaited.
	for _, id := range e.sess.ClientIDs() {
		if _, busy := e.inflight[id]; busy {
			continue
		}
		if err := e.sess.conns[id].Send(env); err != nil {
			e.drop(&out, id, fmt.Errorf("comm: async dispatch v%d to client %d: %w", e.version, id, err))
			continue
		}
		e.inflight[id] = e.version
	}

	var deadline <-chan time.Time
	if e.cfg.AggDeadline > 0 {
		t := time.NewTimer(e.cfg.AggDeadline)
		defer t.Stop()
		deadline = t.C
	}

	folded := 0
	for folded < e.cfg.Buffer {
		// Drain the carried-over buffer first (checkpoint restores and
		// overflow beyond a previous aggregation's goal), then wait.
		if len(e.buffer) > 0 {
			u := e.buffer[0]
			e.buffer = e.buffer[1:]
			if e.foldOne(&out, u, fold) {
				folded++
			}
			continue
		}
		if e.capacity() < e.cfg.Buffer-folded {
			return e.fail(out, fmt.Errorf("%w: aggregation %d: %d of %d updates buffered, %d clients remain",
				ErrQuorum, agg, folded, e.cfg.Buffer, len(e.sess.conns)))
		}
		select {
		case r := <-e.results:
			if e.dead[r.id] {
				continue
			}
			if r.err != nil {
				e.drop(&out, r.id, r.err)
				continue
			}
			v, busy := e.inflight[r.id]
			if !busy || r.u.Version != v || r.u.ClientID != r.id {
				e.drop(&out, r.id, fmt.Errorf("%w: client %d answered version %d as client %d while dispatched v%d",
					ErrProtocol, r.id, r.u.Version, r.u.ClientID, v))
				continue
			}
			delete(e.inflight, r.id)
			if e.foldOne(&out, r.u, fold) {
				folded++
			}
		case <-deadline:
			return e.fail(out, fmt.Errorf("%w: aggregation %d: %d of %d updates buffered within %v",
				ErrQuorum, agg, folded, e.cfg.Buffer, e.cfg.AggDeadline))
		}
	}
	e.version++
	out.Version = e.version
	sort.Ints(out.Reported)
	sort.Ints(out.Dropped)
	return out, nil
}

// foldOne weighs one buffered update by its staleness and folds it.
// Too-stale updates are counted and discarded; a fold error drops the
// client. Reports whether the update was folded.
func (e *AsyncEngine) foldOne(out *RoundOutcome, u ClientUpdate, fold func(ClientUpdate, float64) error) bool {
	s := e.version - u.Version
	if s < 0 {
		e.drop(out, u.ClientID, fmt.Errorf("%w: client %d update from future version %d (current %d)",
			ErrProtocol, u.ClientID, u.Version, e.version))
		return false
	}
	if e.cfg.MaxStaleness >= 0 && s > e.cfg.MaxStaleness {
		out.Discarded++
		return false
	}
	lambda := 1.0
	if e.cfg.Weigh != nil {
		lambda = e.cfg.Weigh(s)
		if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
			e.drop(out, u.ClientID, fmt.Errorf("%w: staleness weigher produced %v for staleness %d", ErrProtocol, lambda, s))
			return false
		}
	}
	if err := fold(u, lambda); err != nil {
		e.drop(out, u.ClientID, fmt.Errorf("comm: folding async update from client %d: %w", u.ClientID, err))
		return false
	}
	out.Reported = append(out.Reported, u.ClientID)
	out.Staleness[u.ClientID] = s
	return true
}

// capacity is the number of updates that can still possibly arrive or be
// drained this aggregation: the clients currently training (each holds at
// most one outstanding update), plus the carried-over buffer. A client that
// already reported is idle until the next dispatch and cannot contribute
// again, so counting it would turn an unmeetable buffer goal into a silent
// hang instead of ErrQuorum.
func (e *AsyncEngine) capacity() int {
	return len(e.inflight) + len(e.buffer)
}

// drop removes a client from the federation, mirroring the synchronous
// engine's crash class.
func (e *AsyncEngine) drop(out *RoundOutcome, id int, err error) {
	if _, live := e.sess.conns[id]; live {
		_ = e.sess.conns[id].Close()
		delete(e.sess.conns, id)
	}
	e.dead[id] = true
	delete(e.inflight, id)
	if _, seen := out.Failures[id]; !seen {
		out.Dropped = append(out.Dropped, id)
	}
	out.Failures[id] = err
}

// fail finalizes a failed aggregation's outcome.
func (e *AsyncEngine) fail(out RoundOutcome, err error) (RoundOutcome, error) {
	sort.Ints(out.Reported)
	sort.Ints(out.Dropped)
	errs := []error{err}
	for _, id := range out.Dropped {
		errs = append(errs, out.Failures[id])
	}
	return out, errors.Join(errs...)
}

// read is the per-client reader goroutine: it forwards every ClientUpdate
// to the engine loop and exits on the first error or foreign frame.
func (e *AsyncEngine) read(id int, conn Conn) {
	for {
		env, err := conn.Recv()
		if err != nil {
			e.results <- asyncResult{id: id, err: fmt.Errorf("comm: update from client %d: %w", id, err)}
			return
		}
		if env.Type != MsgClientUpdate {
			e.results <- asyncResult{id: id, err: fmt.Errorf("%w: expected client-update from %d, got %v", ErrProtocol, id, env.Type)}
			return
		}
		var u ClientUpdate
		if err := DecodeBody(env, &u); err != nil {
			e.results <- asyncResult{id: id, err: err}
			return
		}
		e.results <- asyncResult{id: id, u: u}
	}
}
