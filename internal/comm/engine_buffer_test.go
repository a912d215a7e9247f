package comm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// stuckConn is a peer that stopped reading with its socket buffer full: Send
// blocks until the connection is closed.
type stuckConn struct {
	Conn
	closed chan struct{}
	once   sync.Once
}

func (c *stuckConn) Send(Envelope) error {
	<-c.closed
	return fmt.Errorf("%w: connection closed", ErrProtocol)
}

func (c *stuckConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestEngineBlockedSendDoesNotWedgeBufferedRound: a peer that stops reading
// must not wedge a buffered server. Each dispatch is its own goroutine, so
// the round closes on the other peer's update while the send to the stuck one
// is still blocked. (The buffered engine this one replaced sent to every idle
// peer in turn on the caller's goroutine, and never returned from this.)
func TestEngineBlockedSendDoesNotWedgeBufferedRound(t *testing.T) {
	lst := NewPipeListener(2)
	go echoClient(lst.ClientSide(0), 0)
	go echoClient(lst.ClientSide(1), 1)
	sess, err := AcceptClientsCodec(lst, 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	stuck := &stuckConn{Conn: sess.conns[0], closed: make(chan struct{})}
	sess.conns[0] = stuck
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, RoundDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		out RoundOutcome
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		out, err := eng.RunRound(RoundStart{Round: 1}, func(ClientUpdate) error { return nil })
		done <- outcome{out, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !reflect.DeepEqual(r.out.Reported, []int{1}) || len(r.out.Dropped) != 0 {
			t.Fatalf("outcome %+v", r.out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a peer whose Send blocks wedged the buffered round")
	}
	// Closing the stuck connection is what ends its flight.
	_ = stuck.Close()
	_ = sess.Shutdown("done")
}

// TestEngineBufferedSlowPeerTimesOutAndIsRedispatched pins the one deadline
// rule under a buffer: RoundDeadline bounds one dispatch per peer, so a peer
// slower than it is timed out — not the whole aggregation failed — stays
// registered, is dispatched again at the next round, and its late reply is
// counted and discarded.
func TestEngineBufferedSlowPeerTimesOutAndIsRedispatched(t *testing.T) {
	const deadline = 50 * time.Millisecond
	lst := NewPipeListener(2)
	release := make(chan struct{}) // holds the slow peer's reply to round 1
	park := make(chan struct{})    // holds the fast peer's reply to round 3 for good
	t.Cleanup(func() { close(park) })
	go func() {
		sess, _, err := Join(lst.ClientSide(0), 0, 10)
		if err != nil {
			return
		}
		for {
			rs, ok, err := sess.NextRound()
			if err != nil || !ok {
				return
			}
			if rs.Round == 3 {
				<-park
			}
			if err := sess.SendUpdate(ClientUpdate{ClientID: 0, Round: rs.Round, NumSelected: 1}); err != nil {
				return
			}
		}
	}()
	go asyncEchoClient(lst.ClientSide(1), 1, map[int]chan struct{}{1: release})
	sess, err := AcceptClientsCodec(lst, 2, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Buffer: 1, MaxStaleness: -1, RoundDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	fold := func(ClientUpdate) error { return nil }

	// Round 1 closes on the fast peer; the slow one stays in flight.
	out, err := eng.RunRound(RoundStart{Round: 1}, fold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || len(out.TimedOut) != 0 {
		t.Fatalf("round 1: %+v", out)
	}
	// Round 2 starts once the slow peer's dispatch has expired (the event
	// awaited is a wall-clock deadline, hence the sleep), so the first result
	// it reads is that timeout: timed out, not dropped, and the round still
	// fills its buffer from the fast peer.
	time.Sleep(2 * deadline)
	out, err = eng.RunRound(RoundStart{Round: 2}, fold)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || !reflect.DeepEqual(out.TimedOut, []int{1}) || len(out.Dropped) != 0 {
		t.Fatalf("round 2: %+v", out)
	}
	if ids := sess.ClientIDs(); !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("live clients %v after the timeout", ids)
	}
	// Round 3 dispatches to the slow peer again. It now sends its round-1
	// reply, which is late, then answers round 3 — at staleness 0.
	close(release)
	var versions []int
	out, err = eng.RunRound(RoundStart{Round: 3}, func(u ClientUpdate) error {
		versions = append(versions, u.Version)
		return nil
	})
	if err != nil {
		t.Fatalf("round 3: %v", err)
	}
	if !reflect.DeepEqual(out.Reported, []int{1}) || out.LateDiscarded != 1 || !reflect.DeepEqual(versions, []int{2}) {
		t.Fatalf("round 3: %+v, folded versions %v", out, versions)
	}
	_ = sess.Shutdown("done")
}
