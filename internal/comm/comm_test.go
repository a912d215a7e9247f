package comm

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fedfteds/internal/tensor"
)

func TestEncodeDecodeTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := []*tensor.Tensor{
		tensor.New(3, 4),
		tensor.New(7),
		tensor.New(2, 2, 2),
	}
	for _, x := range ts {
		x.FillNormal(rng, 0, 1)
	}
	blob, err := EncodeTensors(ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTensors(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("decoded %d tensors", len(got))
	}
	for i := range ts {
		if !got[i].Equal(ts[i]) {
			t.Fatalf("tensor %d mismatch", i)
		}
	}
}

func TestDecodeTensorsRejectsGarbage(t *testing.T) {
	if _, err := DecodeTensors([]byte{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol, got %v", err)
	}
	// Valid count but trailing junk.
	blob, err := EncodeTensors([]*tensor.Tensor{tensor.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, 0xFF)
	if _, err := DecodeTensors(blob); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol for trailing bytes, got %v", err)
	}
}

func TestEnvelopeBodyRoundTrip(t *testing.T) {
	in := RoundStart{Round: 3, State: []byte{1, 2, 3}, Groups: []string{"up", "classifier"}, SelectFraction: 0.5, LocalEpochs: 5}
	env, err := EncodeBody(MsgRoundStart, in)
	if err != nil {
		t.Fatal(err)
	}
	var out RoundStart
	if err := DecodeBody(env, &out); err != nil {
		t.Fatal(err)
	}
	if out.Round != 3 || out.SelectFraction != 0.5 || len(out.Groups) != 2 || out.Groups[0] != "up" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestPipeSendRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	env, err := EncodeBody(MsgHello, Hello{ClientID: 7, LocalSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Send(env) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var hello Hello
	if err := DecodeBody(got, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.ClientID != 7 {
		t.Fatalf("client id %d", hello.ClientID)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errCh <- err
	}()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol on closed recv, got %v", err)
	}
}

func TestTCPConnRoundTrip(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		env, err := conn.Recv()
		if err != nil {
			serverErr = err
			return
		}
		serverErr = conn.Send(env) // echo
	}()

	client, err := DialTCP(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(2))
	payload := tensor.New(16, 16)
	payload.FillNormal(rng, 0, 1)
	blob, err := EncodeTensors([]*tensor.Tensor{payload})
	if err != nil {
		t.Fatal(err)
	}
	env, err := EncodeBody(MsgClientUpdate, ClientUpdate{ClientID: 1, Round: 2, State: blob, NumSelected: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(env); err != nil {
		t.Fatal(err)
	}
	echo, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	var u ClientUpdate
	if err := DecodeBody(echo, &u); err != nil {
		t.Fatal(err)
	}
	ts, err := DecodeTensors(u.State)
	if err != nil {
		t.Fatal(err)
	}
	if !ts[0].Equal(payload) {
		t.Fatal("tensor corrupted over TCP")
	}
}

func TestServerClientSessionOverPipe(t *testing.T) {
	// Full protocol exercise with 2 clients over in-process pipes.
	const numClients = 2
	serverConns := make([]Conn, numClients)
	clientConns := make([]Conn, numClients)
	for i := 0; i < numClients; i++ {
		serverConns[i], clientConns[i] = Pipe()
	}
	lst := &staticListener{conns: serverConns}

	var wg sync.WaitGroup
	results := make([]error, numClients)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runFakeClient(clientConns[id], id)
		}(i)
	}

	sess, err := AcceptClientsCodec(lst, numClients, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	ids := sess.ClientIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("client ids %v", ids)
	}
	for round := 1; round <= 2; round++ {
		updates, err := collectRound(sess, RoundStart{
			Round: round, State: []byte{9}, Groups: []string{"up"},
			SelectFraction: 0.5, LocalEpochs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(updates) != 2 {
			t.Fatalf("round %d: %d updates", round, len(updates))
		}
		for i, u := range updates {
			if u.ClientID != i || u.Round != round {
				t.Fatalf("update %d: %+v", i, u)
			}
		}
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range results {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
}

// collectRound runs one fail-stop round (full quorum, no deadline) over every
// live client through the RoundEngine and returns the updates by client ID.
func collectRound(sess *ServerSession, rs RoundStart) ([]ClientUpdate, error) {
	engine, err := NewRoundEngine(sess, EngineConfig{})
	if err != nil {
		return nil, err
	}
	var updates []ClientUpdate
	if _, err := engine.RunRound(rs, func(u ClientUpdate) error {
		updates = append(updates, u)
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(updates, func(a, b int) bool { return updates[a].ClientID < updates[b].ClientID })
	return updates, nil
}

// runFakeClient joins, answers every round with a trivial update, and exits
// on shutdown.
func runFakeClient(conn Conn, id int) error {
	sess, welcome, err := Join(conn, id, 10)
	if err != nil {
		return err
	}
	if welcome.NumClients != 2 {
		return errors.New("bad welcome")
	}
	for {
		rs, ok, err := sess.NextRound()
		if err != nil {
			return err
		}
		if !ok {
			return sess.Close()
		}
		if err := sess.SendUpdate(ClientUpdate{
			ClientID: id, Round: rs.Round, State: rs.State, NumSelected: 5,
		}); err != nil {
			return err
		}
	}
}

// staticListener serves a fixed set of pre-connected conns.
type staticListener struct {
	conns []Conn
	next  int
}

var _ Listener = (*staticListener)(nil)

func (s *staticListener) Accept() (Conn, error) {
	if s.next >= len(s.conns) {
		return nil, errors.New("no more conns")
	}
	c := s.conns[s.next]
	s.next++
	return c, nil
}

func (s *staticListener) Addr() string { return "static" }
func (s *staticListener) Close() error { return nil }

func TestAcceptClientsRejectsDuplicateIDs(t *testing.T) {
	sA, cA := Pipe()
	sB, cB := Pipe()
	lst := &staticListener{conns: []Conn{sA, sB}}

	go func() {
		env, _ := EncodeBody(MsgHello, Hello{ClientID: 3})
		_ = cA.Send(env)
		_, _ = cA.Recv()
		env2, _ := EncodeBody(MsgHello, Hello{ClientID: 3})
		_ = cB.Send(env2)
	}()
	if _, err := AcceptClientsCodec(lst, 2, 1, ""); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol for duplicate id, got %v", err)
	}
}

func TestRunRoundRejectsWrongRoundEcho(t *testing.T) {
	sConn, cConn := Pipe()
	sess := &ServerSession{conns: map[int]Conn{0: sConn}}
	go func() {
		_, _, _ = (&ClientSession{conn: cConn, ID: 0}).NextRound()
		env, _ := EncodeBody(MsgClientUpdate, ClientUpdate{ClientID: 0, Round: 99})
		_ = cConn.Send(env)
	}()
	if _, err := collectRound(sess, RoundStart{Round: 1}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol for wrong round, got %v", err)
	}
}
