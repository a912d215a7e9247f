package comm

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// asyncEchoClient answers every dispatch with a valid update echoing the
// dispatched model version, until the server shuts the session down. gates,
// when non-nil, is read before the n-th reply (1-based): the test controls
// exactly when this client's update reaches the engine.
func asyncEchoClient(conn Conn, id int, gates map[int]chan struct{}) {
	sess, _, err := Join(conn, id, 10)
	if err != nil {
		return
	}
	n := 0
	for {
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			_ = sess.Close()
			return
		}
		n++
		if gate, gated := gates[n]; gated {
			<-gate
		}
		if err := sess.SendUpdate(ClientUpdate{
			ClientID: id, Round: rs.Round, Version: rs.Version, NumSelected: 1 + id,
		}); err != nil {
			return
		}
	}
}

// TestAsyncEngineFullBufferIsSyncRound pins the degenerate case the
// equivalence gates build on: with Buffer equal to the federation size and no
// weigher, every aggregation folds exactly one fresh update per client at
// staleness 0, and the version counter advances one per aggregation — the
// synchronous round loop in async clothing.
func TestAsyncEngineFullBufferIsSyncRound(t *testing.T) {
	const numClients = 3
	lst := NewPipeListener(numClients)
	for i := 0; i < numClients; i++ {
		go asyncEchoClient(lst.ClientSide(i), i, nil)
	}
	sess, err := AcceptClientsCodec(lst, numClients, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: numClients})
	if err != nil {
		t.Fatal(err)
	}
	for agg := 1; agg <= 2; agg++ {
		var staleness []int
		out, err := eng.RunRound(RoundStart{Round: agg}, func(u ClientUpdate) error {
			staleness = append(staleness, eng.Version()-u.Version)
			return nil
		})
		if err != nil {
			t.Fatalf("aggregation %d: %v", agg, err)
		}
		if !reflect.DeepEqual(out.Reported, []int{0, 1, 2}) {
			t.Fatalf("aggregation %d reported %v", agg, out.Reported)
		}
		if out.Version != agg {
			t.Fatalf("aggregation %d advanced to version %d", agg, out.Version)
		}
		for _, s := range staleness {
			if s != 0 {
				t.Fatalf("aggregation %d: staleness %d, want 0", agg, s)
			}
		}
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncEngineStaleUpdateDiscounted drives the FedBuff semantics: a
// client that trained against version v and reports after the model advanced
// to v+1 is folded at staleness 1, not dropped and not awaited.
func TestAsyncEngineStaleUpdateDiscounted(t *testing.T) {
	lst := NewPipeListener(2)
	gate0 := make(chan struct{}) // holds client 0's second reply
	gate1 := make(chan struct{}) // holds client 1's first reply
	hold1 := make(chan struct{}) // parks client 1 after its first reply
	t.Cleanup(func() { close(hold1) })
	go asyncEchoClient(lst.ClientSide(0), 0, map[int]chan struct{}{2: gate0})
	go asyncEchoClient(lst.ClientSide(1), 1, map[int]chan struct{}{1: gate1, 2: hold1})
	sess, err := AcceptClientsCodec(lst, 2, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, MaxStaleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Staleness is read where the server reads it to weigh the update: inside
	// the fold, against the version the engine dispatched.
	var staleness []int
	fold := func(u ClientUpdate) error {
		staleness = append(staleness, eng.Version()-u.Version)
		return nil
	}

	// Aggregation 1: both clients get version 0; only client 0 replies.
	out, err := eng.RunRound(RoundStart{Round: 1}, fold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || !reflect.DeepEqual(staleness, []int{0}) {
		t.Fatalf("aggregation 1: %+v staleness %v", out, staleness)
	}

	// Aggregation 2: client 0 is re-dispatched version 1 but gated; client 1's
	// version-0 update arrives one aggregation late — folded at staleness 1.
	close(gate1)
	out, err = eng.RunRound(RoundStart{Round: 2}, fold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{1}) || !reflect.DeepEqual(staleness, []int{0, 1}) {
		t.Fatalf("aggregation 2: %+v staleness %v", out, staleness)
	}

	// Aggregation 3: releasing client 0 delivers its version-1 update while
	// the model sits at version 2 — staleness 1 again.
	close(gate0)
	out, err = eng.RunRound(RoundStart{Round: 3}, fold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || !reflect.DeepEqual(staleness, []int{0, 1, 1}) {
		t.Fatalf("aggregation 3: %+v staleness %v", out, staleness)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncEngineMaxStalenessDiscards pins the discard path: a buffered
// update staler than the cap is counted and thrown away, its sender is not
// dropped, and the aggregation keeps going until fresh work fills the
// buffer. A restored buffer makes the ordering deterministic — carried
// updates always drain before live arrivals.
func TestAsyncEngineMaxStalenessDiscards(t *testing.T) {
	lst := NewPipeListener(1)
	go asyncEchoClient(lst.ClientSide(0), 0, nil)
	sess, err := AcceptClientsCodec(lst, 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, MaxStaleness: 1})
	if err != nil {
		t.Fatal(err)
	}
	// An update trained against version 3, restored at version 5: staleness 2
	// exceeds the cap of 1.
	if err := eng.Restore(5, []ClientUpdate{{ClientID: 9, Round: 1, Version: 3}}); err != nil {
		t.Fatal(err)
	}
	var staleness []int
	out, err := eng.RunRound(RoundStart{Round: 1}, func(u ClientUpdate) error {
		staleness = append(staleness, eng.Version()-u.Version)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Discarded != 1 {
		t.Fatalf("discarded %d, want 1", out.Discarded)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || !reflect.DeepEqual(staleness, []int{0}) || len(out.Dropped) != 0 {
		t.Fatalf("outcome %+v staleness %v", out, staleness)
	}
	if out.Version != 6 {
		t.Fatalf("version %d, want 6", out.Version)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncEngineRestoreRoundTrip covers the checkpoint path: a restored
// version counter and buffered update survive, the buffered update is
// drained before any live one with staleness measured against the restored
// version, and a second Restore after the engine started is refused.
func TestAsyncEngineRestoreRoundTrip(t *testing.T) {
	lst := NewPipeListener(1)
	go func() { // joins, receives dispatches, never replies
		sess, _, err := Join(lst.ClientSide(0), 0, 10)
		if err != nil {
			return
		}
		for {
			if _, ok, err := sess.NextRound(); err != nil || !ok {
				return
			}
		}
	}()
	sess, err := AcceptClientsCodec(lst, 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, MaxStaleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	buffered := []ClientUpdate{{ClientID: 7, Round: 3, Version: 3, NumSelected: 5}}
	if err := eng.Restore(5, buffered); err != nil {
		t.Fatal(err)
	}
	if eng.Version() != 5 {
		t.Fatalf("restored version %d", eng.Version())
	}
	if got := eng.Buffered(); !reflect.DeepEqual(got, buffered) {
		t.Fatalf("buffered %+v", got)
	}

	staleness := -1
	out, err := eng.RunRound(RoundStart{Round: 1}, func(u ClientUpdate) error {
		staleness = eng.Version() - u.Version
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{7}) || staleness != 2 || out.Version != 6 {
		t.Fatalf("restored aggregation: %+v staleness %d", out, staleness)
	}
	if err := eng.Restore(9, nil); err == nil {
		t.Fatal("restore after first aggregation accepted")
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncEngineIgnoresLyingVersionEcho: a lying Version echo cannot change
// the staleness an update folds at. A reply is matched to its dispatch by
// Round, and its version is the one the engine recorded when it dispatched —
// client 1 claims a version from the future for an update that is one
// aggregation stale, and folds at staleness 1 all the same.
func TestAsyncEngineIgnoresLyingVersionEcho(t *testing.T) {
	lst := NewPipeListener(2)
	gate0 := make(chan struct{}) // holds client 0's second reply for good
	gate1 := make(chan struct{}) // holds the liar's first reply
	t.Cleanup(func() { close(gate0) })
	go asyncEchoClient(lst.ClientSide(0), 0, map[int]chan struct{}{2: gate0})
	go func() {
		sess, _, err := Join(lst.ClientSide(1), 1, 10)
		if err != nil {
			return
		}
		for {
			rs, ok, err := sess.NextRound()
			if err != nil || !ok {
				return
			}
			<-gate1
			_ = sess.SendUpdate(ClientUpdate{ClientID: 1, Round: rs.Round, Version: rs.Version + 41, NumSelected: 1})
		}
	}()
	sess, err := AcceptClientsCodec(lst, 2, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, MaxStaleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	var versions, staleness []int
	fold := func(u ClientUpdate) error {
		versions = append(versions, u.Version)
		staleness = append(staleness, eng.Version()-u.Version)
		return nil
	}
	if _, err := eng.RunRound(RoundStart{Round: 1}, fold); err != nil {
		t.Fatal(err)
	}
	close(gate1)
	out, err := eng.RunRound(RoundStart{Round: 2}, fold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{1}) || len(out.Dropped) != 0 {
		t.Fatalf("outcome %+v", out)
	}
	if !reflect.DeepEqual(versions, []int{0, 0}) || !reflect.DeepEqual(staleness, []int{0, 1}) {
		t.Fatalf("folded versions %v at staleness %v, want [0 0] at [0 1]", versions, staleness)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncEngineDeadline bounds an aggregation that can never fill its
// buffer: the configured deadline turns a silent hang into ErrQuorum.
func TestAsyncEngineDeadline(t *testing.T) {
	lst := NewPipeListener(1)
	go func() {
		sess, _, err := Join(lst.ClientSide(0), 0, 10)
		if err != nil {
			return
		}
		for {
			if _, ok, err := sess.NextRound(); err != nil || !ok {
				return
			}
		}
	}()
	sess, err := AcceptClientsCodec(lst, 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, RoundDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRound(RoundStart{Round: 1}, func(ClientUpdate) error { return nil }); !errors.Is(err, ErrQuorum) {
		t.Fatalf("expected deadline quorum failure, got %v", err)
	}
}

// TestAsyncEngineConfigRejections pins the fail-fast construction surface.
func TestAsyncEngineConfigRejections(t *testing.T) {
	lst := NewPipeListener(1)
	go asyncEchoClient(lst.ClientSide(0), 0, nil)
	sess, err := AcceptClientsCodec(lst, 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRoundEngine(nil, EngineConfig{Buffer: 1}); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := NewRoundEngine(sess, EngineConfig{Buffer: -1}); err == nil {
		t.Fatal("negative buffer accepted")
	}
	if _, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, RoundDeadline: -time.Second}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(-1, nil); err == nil {
		t.Fatal("negative restored version accepted")
	}
}
