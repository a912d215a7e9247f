package comm

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAdmitterReadmitsDroppedClient covers the relay-rejoin path: a peer
// whose connection died re-registers through the background Admitter and is
// folded back into the session at the next Drain, with its registration
// metadata (relay role, leaf count, local size) intact.
func TestAdmitterReadmitsDroppedClient(t *testing.T) {
	lst := NewPipeListener(2)
	go func() {
		if _, _, err := Join(lst.ClientSide(0), 0, 5); err != nil {
			t.Error(err)
		}
	}()
	sess, err := AcceptClientsCodec(lst, 1, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	adm, err := NewAdmitterCodec(lst, 1, 7, "")
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: the server loses client 0's connection.
	_ = sess.conns[0].Close()
	delete(sess.conns, 0)
	delete(sess.relays, 0)
	delete(sess.leaves, 0)

	// The peer comes back as a relay this time, on a fresh connection.
	joined := make(chan error, 1)
	go func() {
		_, w, err := JoinRelay(lst.ClientSide(1), 0, 40, 4)
		if err == nil && w.Rounds != 7 {
			t.Errorf("re-admission welcome advertises %d rounds, want 7", w.Rounds)
		}
		joined <- err
	}()
	if err := <-joined; err != nil {
		t.Fatalf("rejoin: %v", err)
	}

	// The handshake runs in a background goroutine; poll the round-boundary
	// drain until the admission lands.
	deadline := time.Now().Add(5 * time.Second)
	var ids []int
	for len(ids) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-admission never drained")
		}
		ids = adm.Drain(sess)
		time.Sleep(time.Millisecond)
	}
	if !reflect.DeepEqual(ids, []int{0}) {
		t.Fatalf("drained %v, want [0]", ids)
	}
	if !sess.IsRelay(0) || sess.DownstreamClients(0) != 4 || sess.LocalSize(0) != 40 {
		t.Fatalf("re-admitted metadata lost: relay=%v leaves=%d size=%d",
			sess.IsRelay(0), sess.DownstreamClients(0), sess.LocalSize(0))
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// parkDuplicate registers client 0, starts an Admitter, registers a second
// peer under the same ID and drains until that re-registration is parked.
func parkDuplicate(t *testing.T, spare int) (*PipeListener, *ServerSession, *Admitter, *ClientSession) {
	t.Helper()
	lst := NewPipeListener(2 + spare)
	go func() {
		if _, _, err := Join(lst.ClientSide(0), 0, 5); err != nil {
			t.Error(err)
		}
	}()
	sess, err := AcceptClientsCodec(lst, 1, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	adm, err := NewAdmitterCodec(lst, 1, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate handshake itself succeeds (the Admitter cannot know
	// liveness); Drain is where it is held back.
	dup, _, err := Join(lst.ClientSide(1), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sess.parked) == 0 {
		if ids := adm.Drain(sess); len(ids) != 0 {
			t.Fatalf("live duplicate admitted: %v", ids)
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate re-registration never reached Drain")
		}
		time.Sleep(time.Millisecond)
	}
	return lst, sess, adm, dup
}

// TestAdmitterRejectsLiveDuplicate: a peer registering under a
// still-connected ID is never admitted beside it — it is parked, the
// original connection stays in the session, a second duplicate supersedes
// the first, and Shutdown closes what is still parked.
func TestAdmitterRejectsLiveDuplicate(t *testing.T) {
	lst, sess, adm, dup := parkDuplicate(t, 1)
	original := sess.conns[0]
	for i := 0; i < 3; i++ {
		if ids := adm.Drain(sess); len(ids) != 0 {
			t.Fatalf("live duplicate admitted: %v", ids)
		}
	}
	if sess.conns[0] != original || sess.LocalSize(0) != 5 {
		t.Fatal("original registration replaced by the duplicate")
	}

	closed := make(chan error, 1)
	go func() {
		_, _, err := dup.NextRound()
		closed <- err
	}()
	second, _, err := Join(lst.ClientSide(2), 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sess.parked[0].hello.LocalSize != 11 {
		if ids := adm.Drain(sess); len(ids) != 0 {
			t.Fatalf("live duplicate admitted: %v", ids)
		}
		if time.Now().After(deadline) {
			t.Fatal("second duplicate never superseded the first")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-closed; err == nil {
		t.Fatal("superseded duplicate served a round instead of closing")
	}

	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := second.NextRound(); ok || err == nil {
		t.Fatalf("parked duplicate after Shutdown: ok=%v err=%v, want a closed connection", ok, err)
	}
}

// TestAdmitterAdmitsParkedDuplicateOnceVacated is the fast-restart case: a
// relay that re-registers before the server has noticed its crash is parked
// at one round boundary and admitted at the first one after the dead
// connection is dropped, with the new registration's metadata.
func TestAdmitterAdmitsParkedDuplicateOnceVacated(t *testing.T) {
	_, sess, adm, _ := parkDuplicate(t, 0)

	// The round in between notices the crash and drops the old connection.
	_ = sess.conns[0].Close()
	delete(sess.conns, 0)

	if ids := adm.Drain(sess); !reflect.DeepEqual(ids, []int{0}) {
		t.Fatalf("drained %v after the ID was vacated, want [0]", ids)
	}
	if len(sess.parked) != 0 || sess.LocalSize(0) != 9 {
		t.Fatalf("parked %d, local size %d; want the restarted peer registered", len(sess.parked), sess.LocalSize(0))
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestDialTCPRetryConnectsLateListener pins the startup-race contract: a
// dialer launched before its server listens succeeds once the listener
// appears within the backoff schedule.
func TestDialTCPRetryConnectsLateListener(t *testing.T) {
	restoreBase, restoreCap := dialRetryBase, dialRetryCap
	dialRetryBase, dialRetryCap = 5*time.Millisecond, 20*time.Millisecond
	defer func() { dialRetryBase, dialRetryCap = restoreBase, restoreCap }()

	// Reserve a port, then free it so the first dial attempts are refused.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	ready := make(chan Listener, 1)
	go func() {
		time.Sleep(15 * time.Millisecond)
		l, err := ListenTCP(addr)
		if err != nil {
			t.Error(err)
			close(ready)
			return
		}
		ready <- l
		// Complete the dialer's handshake so the TCP connect is accepted.
		conn, err := l.Accept()
		if err == nil {
			_ = conn.Close()
		}
	}()

	conn, err := DialTCPRetry(addr, time.Second, 10)
	if err != nil {
		t.Fatalf("retry dial never connected: %v", err)
	}
	_ = conn.Close()
	if l, ok := <-ready; ok {
		_ = l.Close()
	}
}

// TestDialTCPRetryExhaustsAttempts: with no listener ever appearing, the
// loop reports the attempt count and the final cause.
func TestDialTCPRetryExhaustsAttempts(t *testing.T) {
	restoreBase, restoreCap := dialRetryBase, dialRetryCap
	dialRetryBase, dialRetryCap = time.Millisecond, 2*time.Millisecond
	defer func() { dialRetryBase, dialRetryCap = restoreBase, restoreCap }()

	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	if _, err := DialTCPRetry(addr, 100*time.Millisecond, 3); err == nil {
		t.Fatal("dial to a dead address succeeded")
	} else if !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("error %q does not report the attempt count", err)
	}

	// retries <= 0 must behave exactly like a single DialTCP: no backoff
	// sleep, and the error is the bare dial error without the retry wrapper.
	start := time.Now()
	if _, err := DialTCPRetry(addr, 100*time.Millisecond, 0); err == nil {
		t.Fatal("dial to a dead address succeeded")
	} else if strings.Contains(err.Error(), "attempts") {
		t.Fatalf("zero-retry dial wrapped its error: %q", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("zero-retry dial took %v", elapsed)
	}
}
