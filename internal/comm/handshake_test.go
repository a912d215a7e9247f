package comm

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// compressHandshake shortens the handshake deadline for one test.
func compressHandshake(t *testing.T, d time.Duration) {
	t.Helper()
	old := handshakeTimeout
	handshakeTimeout = d
	t.Cleanup(func() { handshakeTimeout = old })
}

// dialNoise opens the two connections an open port attracts: one announcing
// a Hello of the full 64 MiB frame cap, one that never says anything.
func dialNoise(t *testing.T, addr string) (huge, silent net.Conn) {
	t.Helper()
	var err error
	if huge, err = net.Dial("tcp", addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { huge.Close() })
	header := binary.LittleEndian.AppendUint32(nil, maxFrameBytes)
	if _, err := huge.Write(append(header, byte(MsgHello))); err != nil {
		t.Fatal(err)
	}
	if silent, err = net.Dial("tcp", addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })
	return huge, silent
}

// expectHangup fails unless the server closes c without sending anything.
func expectHangup(t *testing.T, name string, c net.Conn) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := c.Read(make([]byte, 1))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("%s connection: read %d bytes, err %v; want the server to hang up", name, n, err)
	}
}

// joinOverTCP registers n honest clients concurrently and reports each
// outcome on the returned channel.
func joinOverTCP(addr string, n int) <-chan error {
	joined := make(chan error, n)
	for id := 0; id < n; id++ {
		go func(id int) {
			conn, err := DialTCP(addr, time.Second)
			if err == nil {
				_, _, err = Join(conn, id, 10+id)
			}
			joined <- err
		}(id)
	}
	return joined
}

// TestAcceptClientsSurvivesNoise: a socket announcing a 64 MiB Hello and a
// socket that says nothing, both queued ahead of the honest clients, are
// each dropped — the first before its body is allocated, the second at the
// handshake deadline — and the honest clients behind them register.
func TestAcceptClientsSurvivesNoise(t *testing.T) {
	compressHandshake(t, 150*time.Millisecond)
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge, silent := dialNoise(t, l.Addr())
	joined := joinOverTCP(l.Addr(), 2)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := AcceptClientsCodec(l, 2, 1, "")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Fatalf("accepting allocated %d bytes: the announced 64 MiB body must never be", spent)
	}
	for i := 0; i < 2; i++ {
		if err := <-joined; err != nil {
			t.Fatalf("honest client: %v", err)
		}
	}
	if ids := sess.ClientIDs(); !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("registered %v, want [0 1]", ids)
	}
	expectHangup(t, "oversized", huge)
	expectHangup(t, "silent", silent)
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitterSurvivesNoise is the same for the re-registration path: the
// background acceptor hangs up on both noise sockets and still admits the
// peer that rejoins behind them.
func TestAdmitterSurvivesNoise(t *testing.T) {
	compressHandshake(t, 150*time.Millisecond)
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	adm, err := NewAdmitterCodec(l, 1, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	huge, silent := dialNoise(t, l.Addr())
	if err := <-joinOverTCP(l.Addr(), 1); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	sess := &ServerSession{conns: map[int]Conn{}, sizes: map[int]int{}}
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
	expectHangup(t, "oversized", huge)
	expectHangup(t, "silent", silent)
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
}

// tcpPair returns a dialled connection and the accepted connection it
// reached, over loopback.
func tcpPair(t *testing.T) (client, server Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if client, err = DialTCP(l.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}

// TestFirstFrameLimitIsLiftedAfterHello: the maxHelloBytes limit (refusal:
// TestAcceptClientsSurvivesNoise) covers only an accepted connection's first
// frame. Once one frame has been read it takes frames up to the general cap,
// and a dialled connection never had the limit — the first thing it reads is
// the server's Welcome.
func TestFirstFrameLimitIsLiftedAfterHello(t *testing.T) {
	client, server := tcpPair(t)

	big := Envelope{Type: MsgClientUpdate, Body: make([]byte, maxHelloBytes+1)}
	hello, err := EncodeBody(MsgHello, Hello{ClientID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		from, to Conn
		env      Envelope
	}{
		{server, client, big}, // dialled side: no handshake limit
		{client, server, hello},
		{client, server, big}, // accepted side, after its first frame
	} {
		sent := make(chan error, 1)
		go func() { sent <- step.from.Send(step.env) }()
		got, err := step.to.Recv()
		if err != nil || len(got.Body) != len(step.env.Body) {
			t.Fatalf("%d-byte frame: got %d bytes, err %v", len(step.env.Body), len(got.Body), err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPFrameLengthCorruptionRejected corrupts the transport-level length
// prefix: a frame claiming more than the 64 MiB cap must be refused before
// any allocation, classified as a protocol error.
func TestTCPFrameLengthCorruptionRejected(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		// 5-byte header: little-endian length (cap + 1), then the type tag.
		header := []byte{0x01, 0x00, 0x00, 0x04, byte(MsgClientUpdate)}
		_, _ = client.Write(header)
	}()
	if _, err := NewTCPConn(server).Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized frame length: got %v, want ErrProtocol", err)
	}
}

// budgetConn is a net.Conn that accepts budget bytes and then fails every
// write, standing in for a peer that disappears mid-frame.
type budgetConn struct {
	net.Conn
	budget int
}

var errWriteBroke = errors.New("write broke")

func (c *budgetConn) Write(p []byte) (int, error) {
	if len(p) <= c.budget {
		c.budget -= len(p)
		return len(p), nil
	}
	n := c.budget
	c.budget = 0
	return n, errWriteBroke
}

// TestSendDesyncRule pins the rule the single vectored write must keep: a
// send that put nothing on the wire is a plain error and the connection
// stays usable; any partial frame marks the stream broken for good, named
// after the part of the frame that was cut.
func TestSendDesyncRule(t *testing.T) {
	env := Envelope{Type: MsgShutdown, Body: []byte("12345678")}
	for _, tt := range []struct {
		written int
		op      string // "" = not a desync
	}{
		{0, ""},
		{3, "write header"},
		{frameHeaderBytes, "write body"},
		{frameHeaderBytes + 4, "write body"},
	} {
		raw := &budgetConn{budget: tt.written}
		c := NewTCPConn(raw)
		err := c.Send(env)
		var de *DesyncError
		switch {
		case !errors.Is(err, errWriteBroke) && !errors.As(err, &de):
			t.Fatalf("%d bytes written: got %v", tt.written, err)
		case tt.op == "" && (errors.As(err, &de) || c.broken.Load()):
			t.Fatalf("nothing written, yet the stream is marked broken: %v", err)
		case tt.op != "" && (!errors.As(err, &de) || de.Op != tt.op || de.Cause != errWriteBroke || !errors.Is(err, ErrProtocol)):
			t.Fatalf("%d bytes written: got %v, want a %q desync", tt.written, err, tt.op)
		}
		raw.budget = 1 << 20
		if err := c.Send(env); (err != nil) != (tt.op != "") {
			t.Fatalf("%d bytes written: next send returned %v", tt.written, err)
		}
	}
}

// TestTCPFramingAllocatesOnlyTheBody: a Send allocates nothing and a Recv
// exactly the body it returns — no heap header, no write vector.
func TestTCPFramingAllocatesOnlyTheBody(t *testing.T) {
	client, server := tcpPair(t)
	env := Envelope{Type: MsgShutdown, Body: make([]byte, 512)}
	allocs := testing.AllocsPerRun(50, func() {
		if err := client.Send(env); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Send+Recv allocate %v times per frame, want 1 (the received body)", allocs)
	}
}
