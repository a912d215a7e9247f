package comm

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedfteds/internal/tensor"
)

// echoClient joins and answers every round with a trivial valid update,
// until the server shuts the session down.
func echoClient(conn Conn, id int) {
	sess, _, err := Join(conn, id, 10)
	if err != nil {
		return
	}
	for {
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			_ = sess.Close()
			return
		}
		if err := sess.SendUpdate(ClientUpdate{ClientID: id, Round: rs.Round, NumSelected: 1 + id}); err != nil {
			return
		}
	}
}

func TestEngineQuorumSurvivesKilledClient(t *testing.T) {
	const numClients = 3
	lst := NewPipeListener(numClients)
	for i := 0; i < numClients; i++ {
		go func(id int) {
			conn := lst.ClientSide(id)
			sess, _, err := Join(conn, id, 10)
			if err != nil {
				return
			}
			for {
				rs, ok, err := sess.NextRound()
				if err != nil || !ok {
					return
				}
				if id == 2 && rs.Round == 2 {
					// Crash mid-round: vanish without replying.
					_ = conn.Close()
					return
				}
				if err := sess.SendUpdate(ClientUpdate{ClientID: id, Round: rs.Round, NumSelected: 1}); err != nil {
					return
				}
			}
		}(i)
	}

	sess, err := AcceptClientsCodec(lst, numClients, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Quorum: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		var got []int
		out, err := eng.RunRound(RoundStart{Round: round}, func(u ClientUpdate) error {
			got = append(got, u.ClientID)
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		switch round {
		case 1:
			if !reflect.DeepEqual(out.Reported, []int{0, 1, 2}) {
				t.Fatalf("round 1 reported %v", out.Reported)
			}
		case 2:
			if !reflect.DeepEqual(out.Reported, []int{0, 1}) || !reflect.DeepEqual(out.Dropped, []int{2}) {
				t.Fatalf("round 2 reported %v dropped %v", out.Reported, out.Dropped)
			}
			if out.Failures[2] == nil {
				t.Fatal("round 2: expected a failure recorded for client 2")
			}
		case 3:
			if !reflect.DeepEqual(out.Reported, []int{0, 1}) || len(out.Dropped) != 0 {
				t.Fatalf("round 3 reported %v dropped %v", out.Reported, out.Dropped)
			}
		}
	}
	if ids := sess.ClientIDs(); !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("surviving clients %v", ids)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCohortIdleClientsSurviveAndRejoin drives scheduled cohorts: a
// round broadcast to cohort {0, 1} must never touch client 2 — it receives
// no frame, keeps its connection, and counts toward no quorum — and a later
// cohort that includes it gets its update as if nothing happened.
func TestEngineCohortIdleClientsSurviveAndRejoin(t *testing.T) {
	const numClients = 3
	lst := NewPipeListener(numClients)
	rounds := make([]chan int, numClients) // the round indices each client served
	for i := 0; i < numClients; i++ {
		rounds[i] = make(chan int, 8)
		go func(id int) {
			sess, _, err := Join(lst.ClientSide(id), id, 10+id)
			if err != nil {
				return
			}
			for {
				rs, ok, err := sess.NextRound()
				if err != nil || !ok {
					close(rounds[id])
					return
				}
				rounds[id] <- rs.Round
				if err := sess.SendUpdate(ClientUpdate{ClientID: id, Round: rs.Round, NumSelected: 1}); err != nil {
					return
				}
			}
		}(i)
	}

	sess, err := AcceptClientsCodec(lst, numClients, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	// A short deadline: if the engine waited on the idle client, the round
	// would stall to the deadline and report a timeout.
	eng, err := NewRoundEngine(sess, EngineConfig{RoundDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	fold := func(ClientUpdate) error { return nil }
	out, err := eng.RunCohort(RoundStart{Round: 1}, []int{0, 1}, fold)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0, 1}) || len(out.TimedOut) != 0 || len(out.Dropped) != 0 {
		t.Fatalf("round 1 outcome %+v", out)
	}
	// The idle client stays registered with its Hello metadata intact.
	if ids := sess.ClientIDs(); !reflect.DeepEqual(ids, []int{0, 1, 2}) {
		t.Fatalf("live clients %v, want all three", ids)
	}
	if got := sess.LocalSize(2); got != 12 {
		t.Fatalf("idle client's local size %d, want 12", got)
	}

	// The formerly idle client serves the next cohort; client 0 now idles.
	out, err = eng.RunCohort(RoundStart{Round: 2}, []int{1, 2}, fold)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if !reflect.DeepEqual(out.Reported, []int{1, 2}) {
		t.Fatalf("round 2 reported %v", out.Reported)
	}

	// Duplicate cohort entries must be rejected, not silently collapsed.
	if _, err := eng.RunCohort(RoundStart{Round: 3}, []int{1, 1}, fold); !errors.Is(err, ErrProtocol) {
		t.Fatalf("duplicate cohort: %v, want ErrProtocol", err)
	}

	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	// Per-client service log: client 0 served only round 1, client 1 both
	// rounds, client 2 only round 2 — idle rounds left no trace.
	want := [][]int{{1}, {1, 2}, {2}}
	for id := range rounds {
		var got []int
		for r := range rounds[id] {
			got = append(got, r)
		}
		if !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("client %d served rounds %v, want %v", id, got, want[id])
		}
	}
}

func TestEngineDeadlineDropsStalledClientThenRejoins(t *testing.T) {
	lst := NewPipeListener(2)
	go echoClient(lst.ClientSide(0), 0)
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
			if rs.Round == 1 {
				// Hang silently through round 1; recover afterwards.
				continue
			}
			if err := sess.SendUpdate(ClientUpdate{ClientID: 1, Round: rs.Round, NumSelected: 1}); err != nil {
				return
			}
		}
	}()

	sess, err := AcceptClientsCodec(lst, 2, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{RoundDeadline: 150 * time.Millisecond, Quorum: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	fold := func(ClientUpdate) error { return nil }
	out, err := eng.RunRound(RoundStart{Round: 1}, fold)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || !reflect.DeepEqual(out.TimedOut, []int{1}) {
		t.Fatalf("round 1 reported %v timed out %v", out.Reported, out.TimedOut)
	}
	if !errors.Is(out.Failures[1], ErrTimeout) {
		t.Fatalf("round 1: client 1 failure %v, want ErrTimeout", out.Failures[1])
	}
	// The stalled client kept its connection and rejoins in round 2.
	out, err = eng.RunRound(RoundStart{Round: 2}, fold)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0, 1}) {
		t.Fatalf("round 2 reported %v", out.Reported)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDiscardsLateUpdate(t *testing.T) {
	lst := NewPipeListener(1)
	go func() {
		sess, _, err := Join(lst.ClientSide(0), 0, 10)
		if err != nil {
			return
		}
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			return
		}
		// A leftover update from the round this client missed, then the
		// real one.
		_ = sess.SendUpdate(ClientUpdate{ClientID: 0, Round: rs.Round - 1, NumSelected: 1})
		_ = sess.SendUpdate(ClientUpdate{ClientID: 0, Round: rs.Round, NumSelected: 1})
		_, _, _ = sess.NextRound() // wait for shutdown
	}()

	sess, err := AcceptClientsCodec(lst, 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var folded int
	out, err := eng.RunRound(RoundStart{Round: 7}, func(u ClientUpdate) error {
		folded++
		if u.Round != 7 {
			t.Errorf("folded round-%d update", u.Round)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.LateDiscarded != 1 {
		t.Fatalf("late discarded %d, want 1", out.LateDiscarded)
	}
	if folded != 1 || !reflect.DeepEqual(out.Reported, []int{0}) {
		t.Fatalf("folded %d, reported %v", folded, out.Reported)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDropsVersion2RegionFrame: a relay of wire-protocol version 2
// answered rounds with a frame of type 6, a message this protocol does not
// have. Should one reach exchange, which expects exactly one type, it is
// that peer's protocol error: the peer is dropped without a panic and the
// round folds the other client.
func TestEngineDropsVersion2RegionFrame(t *testing.T) {
	lst := NewPipeListener(2)
	go echoClient(lst.ClientSide(0), 0)
	go func() {
		conn := lst.ClientSide(1)
		sess, _, err := Join(conn, 1, 10)
		if err != nil {
			return
		}
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			return
		}
		// Version 2's region update for this round: relay ID, round, then
		// version, leaf count, selected count, four floats, codec and state,
		// all zero.
		body := binary.LittleEndian.AppendUint64(nil, 1)
		body = binary.LittleEndian.AppendUint64(body, uint64(rs.Round))
		body = append(body, make([]byte, 3*8+4*8+2+4)...)
		_ = conn.Send(Envelope{Type: MsgType(6), Body: body})
		_, _, _ = sess.NextRound()
	}()
	sess, err := AcceptClientsCodec(lst, 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Quorum: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.RunRound(RoundStart{Round: 1}, func(ClientUpdate) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Reported, []int{0}) || !reflect.DeepEqual(out.Dropped, []int{1}) {
		t.Fatalf("reported %v dropped %v, want [0] and [1]", out.Reported, out.Dropped)
	}
	if err := out.Failures[1]; !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "got MsgType(6)") {
		t.Fatalf("peer 1 failed with %v, want a protocol error naming MsgType(6)", err)
	}
	if ids := sess.ClientIDs(); !reflect.DeepEqual(ids, []int{0}) {
		t.Fatalf("session keeps %v, want [0]", ids)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

func TestEngineQuorumNotMet(t *testing.T) {
	lst := NewPipeListener(2)
	for i := 0; i < 2; i++ {
		go func(id int) {
			sess, _, err := Join(lst.ClientSide(id), id, 10)
			if err != nil {
				return
			}
			_, _, _ = sess.NextRound()
			_ = sess.Close() // every client dies instead of reporting
		}(i)
	}
	sess, err := AcceptClientsCodec(lst, 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRoundEngine(sess, EngineConfig{Quorum: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.RunRound(RoundStart{Round: 1}, func(ClientUpdate) error { return nil })
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("expected ErrQuorum, got %v", err)
	}
	if len(out.Reported) != 0 || len(out.Dropped) != 2 {
		t.Fatalf("reported %v dropped %v", out.Reported, out.Dropped)
	}
}

// TestEngineQuorumReadings pins Quorum's two readings: a fraction of the
// cohort rounded up (zero meaning all of it), or an integer above 1 as an
// absolute count that is not clamped to the cohort; anything else is refused.
func TestEngineQuorumReadings(t *testing.T) {
	for _, tt := range []struct {
		q    float64
		n    int
		want int
	}{
		{0, 4, 4}, {0.1, 4, 1}, {0.5, 4, 2}, {0.6, 4, 3}, {1, 4, 4}, {3, 4, 3}, {5, 4, 5},
	} {
		if err := (EngineConfig{Quorum: tt.q}).Validate(); err != nil {
			t.Errorf("quorum %v refused: %v", tt.q, err)
		}
		if got := quorumCount(tt.q, tt.n); got != tt.want {
			t.Errorf("quorum %v of %d: need %d, want %d", tt.q, tt.n, got, tt.want)
		}
	}
	for _, q := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		if err := (EngineConfig{Quorum: q}).Validate(); !errors.Is(err, ErrProtocol) {
			t.Errorf("quorum %v: err %v, want ErrProtocol", q, err)
		}
	}
}

// TestStreamAggregatorMatchesBuffered verifies the O(state) streaming fold
// against an O(N·state) buffered reference, bit-for-bit, and against the
// normalize-first weighting within float tolerance.
func TestStreamAggregatorMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 6
	shapes := [][]int{{4, 3}, {7}, {2, 5}}

	updates := make([]ClientUpdate, n)
	states := make([][]*tensor.Tensor, n) // the buffered reference's O(N·state) copy
	var total float64
	for c := 0; c < n; c++ {
		ts := make([]*tensor.Tensor, len(shapes))
		for i, sh := range shapes {
			ts[i] = tensor.New(sh...)
			ts[i].FillNormal(rng, 0, 1)
		}
		blob, err := EncodeTensors(ts)
		if err != nil {
			t.Fatal(err)
		}
		num := 5 + 3*c
		updates[c] = ClientUpdate{ClientID: c, Round: 1, State: blob, NumSelected: num}
		states[c] = ts
		total += float64(num)
	}

	agg := NewStreamAggregator()
	for _, u := range updates {
		if err := agg.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Updates() != n {
		t.Fatalf("folded %d updates", agg.Updates())
	}
	got, err := agg.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Buffered reference: all states held in memory, folded in the same
	// order, normalized at the end.
	buffered := make([]*tensor.Tensor, len(shapes))
	for i, sh := range shapes {
		buffered[i] = tensor.New(sh...)
	}
	for c := range states {
		for i := range buffered {
			if err := buffered[i].Axpy(float32(updates[c].NumSelected), states[c][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range buffered {
		b.Scale(float32(1 / total))
	}
	for i := range buffered {
		if !got[i].Equal(buffered[i]) {
			t.Fatalf("tensor %d: streaming differs from buffered aggregate", i)
		}
	}

	// Normalize-first weighting (the historical fedserver aggregate) agrees
	// within float32 tolerance.
	ref := make([]*tensor.Tensor, len(shapes))
	for i, sh := range shapes {
		ref[i] = tensor.New(sh...)
	}
	for c := range states {
		w := float32(float64(updates[c].NumSelected) / total)
		for i := range ref {
			if err := ref[i].Axpy(w, states[c][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range ref {
		if !got[i].AllClose(ref[i], 1e-5) {
			t.Fatalf("tensor %d: streaming diverges from normalize-first weighting", i)
		}
	}
}

func TestPipeDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	dc, ok := a.(DeadlineConn)
	if !ok {
		t.Fatal("pipe conn must implement DeadlineConn")
	}
	if err := dc.SetDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	// Clearing the deadline unbounds the next Recv.
	if err := dc.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	env, err := EncodeBody(MsgHello, Hello{ClientID: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Send(env) }()
	if _, err := a.Recv(); err != nil {
		t.Fatalf("recv after clearing deadline: %v", err)
	}
}

// TestTCPTimeoutClassification pins the soft/hard drop boundary on the TCP
// transport: a deadline expiring between frames is a recoverable timeout
// (the straggler-rejoin path), while one expiring mid-frame desynchronizes
// the stream and must read as a protocol error so the engine drops the
// client instead of reusing a corrupt connection.
func TestTCPTimeoutClassification(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	srv := (<-accepted).(DeadlineConn)
	defer srv.Close()

	// Between frames: nothing sent, deadline expires → a clean timeout and
	// the connection stays usable.
	if err := srv.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); !isTimeout(err) {
		t.Fatalf("between-frames expiry must classify as timeout, got %v", err)
	}
	if err := srv.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	env, err := EncodeBody(MsgHello, Hello{ClientID: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 5)
	binary.LittleEndian.PutUint32(frame, uint32(len(env.Body)))
	frame[4] = byte(env.Type)
	if _, err := raw.Write(append(frame, env.Body...)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatalf("recv after clean timeout: %v", err)
	}

	// Mid-frame: a header promising 100 body bytes, only 10 delivered,
	// deadline expires → protocol error, never a timeout, and the
	// connection refuses further use even after the rest arrives.
	partial := make([]byte, 5)
	binary.LittleEndian.PutUint32(partial, 100)
	partial[4] = byte(MsgClientUpdate)
	if _, err := raw.Write(append(partial, make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = srv.Recv()
	if err == nil || isTimeout(err) {
		t.Fatalf("mid-frame expiry must not classify as timeout, got %v", err)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol for desynchronized stream, got %v", err)
	}
	if _, err := raw.Write(make([]byte, 90)); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("desynchronized conn must fail fast, got %v", err)
	}
}

func TestShutdownClosesAllAndJoinsErrors(t *testing.T) {
	sA, cA := Pipe()
	sB, cB := Pipe()
	sess := &ServerSession{conns: map[int]Conn{0: sA, 1: sB}}
	_ = cA.Close() // client 0 is already gone; its shutdown send must fail

	if err := sess.Shutdown("bye"); err == nil {
		t.Fatal("expected an error for the dead client")
	}
	// Client 1 still received its shutdown frame despite client 0's error.
	env, err := cB.Recv()
	if err != nil {
		t.Fatalf("client 1 never got shutdown: %v", err)
	}
	if env.Type != MsgShutdown {
		t.Fatalf("client 1 got %v, want shutdown", env.Type)
	}
	if len(sess.ClientIDs()) != 0 {
		t.Fatal("shutdown must clear the session")
	}
}

func TestAcceptClientsClosesConnOnProtocolError(t *testing.T) {
	lst := NewPipeListener(2)
	go func() {
		env, _ := EncodeBody(MsgShutdown, Shutdown{Reason: "not a hello"})
		_ = lst.ClientSide(0).Send(env)
	}()
	if _, err := AcceptClientsCodec(lst, 2, 1, ""); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol, got %v", err)
	}
	// The mid-handshake connection was closed, which the client observes.
	if _, err := lst.ClientSide(0).Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected closed connection, got %v", err)
	}
}
