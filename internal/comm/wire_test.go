package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// goldenState is EncodeTensors of one zero tensor of shape [2].
var goldenState = mustHex("0100000001020000000000000000000000")

// goldenBodies pins the body format byte for byte, one fixture at least per
// message type: a change to a field's width, order or prefix fails here and
// must be made on purpose, together with protocolVersion.
var goldenBodies = []struct {
	name string
	typ  MsgType
	msg  any
	hex  string
}{
	{"hello, plain client", MsgHello, Hello{ClientID: 7, LocalSize: 100},
		"0400" + "0700000000000000" + "6400000000000000"},
	// A relay joins its root like a client, declaring its region's summed
	// dataset size.
	{"hello, relay region", MsgHello, Hello{ClientID: 2, LocalSize: 480},
		"0400" + "0200000000000000" + "e001000000000000"},
	{"welcome, identity", MsgWelcome, Welcome{NumClients: 4, Rounds: 10},
		"0400000000000000" + "0a00000000000000" + "0000"},
	{"welcome, codec advertised", MsgWelcome, Welcome{NumClients: 4, Rounds: 10, Codecs: []string{"int8"}},
		"0400000000000000" + "0a00000000000000" + "0100" + "0400696e7438"},
	// Every recipe field set: what a tiered FedProx server at the default
	// client recipe sends.
	{"round-start, sync", MsgRoundStart,
		RoundStart{Round: 1, State: goldenState, Groups: []string{"up", "classifier"}, SelectFraction: 0.5, LocalEpochs: 5,
			LR: 0.05, Momentum: 0.5, ProxMu: 0.1, Selector: "eds:temperature=0.1", TierDist: "full:1,low:1"},
		"0100000000000000" + "0500000000000000" + "0000000000000000" + "000000000000e03f" +
			"9a9999999999a93f" + "000000000000e03f" + "9a9999999999b93f" +
			"1300" + "6564733a74656d70657261747572653d302e31" + "0c00" + "66756c6c3a312c6c6f773a31" +
			"0200" + "02007570" + "0a00636c6173736966696572" + "0000" +
			"11000000" + "0100000001020000000000000000000000"},
	{"round-start, relay layout, async version, no state", MsgRoundStart,
		RoundStart{Round: 9, SelectFraction: 0.25, LocalEpochs: 1, Version: 8, Layout: []string{"up", "up"}},
		"0900000000000000" + "0100000000000000" + "0800000000000000" + "000000000000d03f" +
			"0000000000000000" + "0000000000000000" + "0000000000000000" + "0000" + "0000" +
			"0000" + "0200" + "02007570" + "02007570" + "00000000"},
	{"client-update, whole state, NaN entropy", MsgClientUpdate,
		ClientUpdate{ClientID: 3, Round: 2, State: goldenState, NumSelected: 16, TrainSeconds: 0.5, TrainLoss: 1.25, MeanEntropy: math.NaN()},
		"0300000000000000" + "0200000000000000" + "0000000000000000" + "1000000000000000" +
			"000000000000e03f" + "000000000000f43f" + "010000000000f87f" +
			"0000" + "0000" + "11000000" + "0100000001020000000000000000000000"},
	{"client-update, masked, codec echo, no state", MsgClientUpdate,
		ClientUpdate{ClientID: -1, Round: 2, Groups: []string{"classifier"}, NumSelected: 1, MeanEntropy: 0.75, Version: 41, Codec: "int8"},
		"ffffffffffffffff" + "0200000000000000" + "2900000000000000" + "0100000000000000" +
			"0000000000000000" + "0000000000000000" + "000000000000e83f" +
			"0400696e7438" + "0100" + "0a00636c6173736966696572" + "00000000"},
	{"shutdown", MsgShutdown, Shutdown{Reason: "done"}, "0400646f6e65"},
	{"shutdown, no reason", MsgShutdown, Shutdown{}, "0000"},
	// A relay's region update is a ClientUpdate: the whole broadcast (no
	// group declaration), the region's summed selected count, the upstream
	// codec's echo.
	{"region-update, codec echo, NaN entropy", MsgClientUpdate,
		ClientUpdate{ClientID: 1, Round: 3, Version: 2, State: goldenState, NumSelected: 32,
			TrainSeconds: 1.5, TrainLoss: 0.75, MeanEntropy: math.NaN(), Codec: "float16"},
		"0100000000000000" + "0300000000000000" + "0200000000000000" + "2000000000000000" +
			"000000000000f83f" + "000000000000e83f" + "010000000000f87f" +
			"0700666c6f61743136" + "0000" + "11000000" + "0100000001020000000000000000000000"},
	{"region-update, no state", MsgClientUpdate, ClientUpdate{ClientID: 1, Round: 3, MeanEntropy: 1.25},
		"0100000000000000" + "0300000000000000" + "0000000000000000" + "0000000000000000" +
			"0000000000000000" + "0000000000000000" + "000000000000f43f" +
			"0000" + "0000" + "00000000"},
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// decodeAs decodes body into a fresh message struct of type typ and returns
// it by value, the form EncodeBody takes.
func decodeAs(typ MsgType, body []byte) (any, error) {
	env := Envelope{Type: typ, Body: body}
	switch typ {
	case MsgHello:
		return decodeInto[Hello](env)
	case MsgWelcome:
		return decodeInto[Welcome](env)
	case MsgRoundStart:
		return decodeInto[RoundStart](env)
	case MsgClientUpdate:
		return decodeInto[ClientUpdate](env)
	case MsgShutdown:
		return decodeInto[Shutdown](env)
	}
	return nil, errors.New("not a message type")
}

func decodeInto[M any](env Envelope) (any, error) {
	var m M
	err := DecodeBody(env, &m)
	return m, err
}

// stateOf returns the State of the message types that carry one.
func stateOf(msg any) []byte {
	switch m := msg.(type) {
	case RoundStart:
		return m.State
	case ClientUpdate:
		return m.State
	}
	return nil
}

// listEntries counts the decoded string-list entries of msg, each of which
// costs one string header on top of the bytes it copies out of the body.
func listEntries(msg any) int {
	switch m := msg.(type) {
	case Welcome:
		return len(m.Codecs)
	case RoundStart:
		return len(m.Groups) + len(m.Layout)
	case ClientUpdate:
		return len(m.Groups)
	}
	return 0
}

// within reports whether p lies inside body's backing array.
func within(p, body []byte) bool {
	if len(p) == 0 {
		return true
	}
	lo, hi := uintptr(unsafe.Pointer(&body[0])), uintptr(unsafe.Pointer(&body[0]))+uintptr(len(body))
	at := uintptr(unsafe.Pointer(&p[0]))
	return at >= lo && at+uintptr(len(p)) <= hi
}

func TestGoldenBodies(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, g := range goldenBodies {
		t.Run(g.name, func(t *testing.T) {
			seen[g.typ] = true
			want := mustHex(g.hex)
			env, err := EncodeBody(g.typ, g.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(env.Body, want) {
				t.Fatalf("encoded\n %x\nwant\n %x", env.Body, want)
			}
			if cap(env.Body) != len(env.Body) {
				t.Fatalf("body allocated %d bytes for %d", cap(env.Body), len(env.Body))
			}
			got, err := decodeAs(g.typ, want)
			if err != nil {
				t.Fatal(err)
			}
			again, err := EncodeBody(g.typ, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Body, want) {
				t.Fatalf("decoded to %+v, which re-encodes as %x", got, again.Body)
			}
			if st := stateOf(got); !within(st, want) || !bytes.Equal(st, stateOf(g.msg)) {
				t.Fatalf("decoded State %x does not alias the body", st)
			}
		})
	}
	for typ := MsgHello; typ <= MsgShutdown; typ++ {
		if !seen[typ] {
			t.Errorf("no golden body for %v", typ)
		}
	}
}

// TestBodyRoundTripRandomFields drives the other direction from the fuzz
// target: arbitrary field values — negative ints, NaN and infinite floats,
// empty and long strings — survive encode then decode exactly.
func TestBodyRoundTripRandomFields(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	num := func() int { return int(rng.Uint64()) }
	flt := func() float64 { return math.Float64frombits(rng.Uint64()) }
	str := func() string { return strings.Repeat("g", rng.Intn(3)*rng.Intn(40)) }
	list := func() []string {
		var ss []string
		for i := rng.Intn(4); i > 0; i-- {
			ss = append(ss, str())
		}
		return ss
	}
	state := func() []byte {
		b := make([]byte, rng.Intn(3)*rng.Intn(64))
		rng.Read(b)
		return b
	}
	for trial := 0; trial < 200; trial++ {
		msgs := map[MsgType]any{
			MsgHello:   Hello{ClientID: num(), LocalSize: num()},
			MsgWelcome: Welcome{NumClients: num(), Rounds: num(), Codecs: list()},
			MsgRoundStart: RoundStart{Round: num(), State: state(), Groups: list(), SelectFraction: flt(), LocalEpochs: num(),
				LR: flt(), Momentum: flt(), ProxMu: flt(), Selector: str(), TierDist: str(), Version: num(), Layout: list()},
			MsgClientUpdate: ClientUpdate{ClientID: num(), Round: num(), State: state(), Groups: list(), NumSelected: num(), TrainSeconds: flt(), TrainLoss: flt(), MeanEntropy: flt(), Version: num(), Codec: str()},
			MsgShutdown:     Shutdown{Reason: str()},
		}
		for typ, msg := range msgs {
			env, err := EncodeBody(typ, msg)
			if err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			got, err := decodeAs(typ, env.Body)
			if err != nil {
				t.Fatalf("%v: %+v: %v", typ, msg, err)
			}
			// Bytes, not DeepEqual: NaN fields must compare equal to
			// themselves, and the encoding is canonical.
			again, err := EncodeBody(typ, got)
			if err != nil || !bytes.Equal(again.Body, env.Body) {
				t.Fatalf("%v: sent %+v, got %+v (%v)", typ, msg, got, err)
			}
		}
	}
}

// allocatedBy returns the heap bytes f allocates: the smaller of two runs,
// because the counter is process-wide and another goroutine may allocate.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	spent := uint64(math.MaxUint64)
	for range 2 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		spent = min(spent, after.TotalAlloc-before.TotalAlloc)
	}
	return spent
}

// checkDecode holds one body to the decoder's contract and reports whether
// it was accepted: a rejection is ErrProtocol; an acceptance re-encodes to
// the same bytes (so there is one encoding, and trailing or missing bytes
// cannot hide) and its State aliases the body; and either way the decode
// allocates no more than the body's own size — the strings it copies out —
// plus one string header per list entry and an error value.
func checkDecode(t *testing.T, typ MsgType, body []byte) bool {
	t.Helper()
	var (
		msg any
		err error
	)
	spent := allocatedBy(func() { msg, err = decodeAs(typ, body) })
	if err != nil {
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%v body %x: rejection is not ErrProtocol: %v", typ, body, err)
		}
		msg = nil
	}
	const stringHeader, slack = 16, 4096 // slack: the boxed result and the error text, under -race too
	if limit := uint64(len(body) + stringHeader*listEntries(msg) + slack); spent > limit {
		t.Fatalf("%v body of %d bytes: decode allocated %d bytes, limit %d", typ, len(body), spent, limit)
	}
	if err != nil {
		return false
	}
	env, err := EncodeBody(typ, msg)
	if err != nil {
		t.Fatalf("%v body %x decoded to %+v, which does not encode: %v", typ, body, msg, err)
	}
	if !bytes.Equal(env.Body, body) {
		t.Fatalf("%v body %x decoded to %+v, which re-encodes as %x", typ, body, msg, env.Body)
	}
	if !within(stateOf(msg), body) {
		t.Fatalf("%v: decoded State does not alias the body", typ)
	}
	return true
}

// FuzzDecodeBody is the one decoder fuzz target, over all five message types:
// no input panics, over-allocates or is accepted without being the canonical
// encoding of what it decoded to (checkDecode), and every accepted body stops
// being accepted when torn at cut or extended by a byte.
func FuzzDecodeBody(f *testing.F) {
	for _, g := range goldenBodies {
		f.Add(uint8(g.typ), mustHex(g.hex), 3)
	}
	// Hostile lengths: a list, a string and a state that each promise far
	// more than the body holds.
	f.Add(uint8(MsgWelcome), mustHex("0400000000000000"+"0a00000000000000"+"ffff"), 0)
	f.Add(uint8(MsgShutdown), mustHex("ffff41"), 0)
	f.Add(uint8(MsgClientUpdate), append(make([]byte, 60), mustHex("ffffffff00")...), 0)

	f.Fuzz(func(t *testing.T, typ uint8, body []byte, cut int) {
		mt := MsgType(typ%uint8(MsgShutdown)) + 1
		if !checkDecode(t, mt, body) {
			return
		}
		if cut %= len(body); cut < 0 {
			cut += len(body)
		}
		if checkDecode(t, mt, body[:cut]) {
			t.Fatalf("%v: prefix of %d/%d bytes accepted", mt, cut, len(body))
		}
		if checkDecode(t, mt, append(body[:len(body):len(body)], 0)) {
			t.Fatalf("%v: body with a trailing byte accepted", mt)
		}
	})
}

// TestDecodeBodyTornAndTrailing is the fuzz target's deterministic CI
// companion: every strict prefix of every golden body, and every golden body
// with a byte appended, is rejected with ErrProtocol.
func TestDecodeBodyTornAndTrailing(t *testing.T) {
	for _, g := range goldenBodies {
		body := mustHex(g.hex)
		for cut := 0; cut < len(body); cut++ {
			if checkDecode(t, g.typ, body[:cut]) {
				t.Fatalf("%s: prefix of %d/%d bytes accepted", g.name, cut, len(body))
			}
		}
		if checkDecode(t, g.typ, append(body, 0)) {
			t.Fatalf("%s: trailing byte accepted", g.name)
		}
	}
}

func TestDecodeBodyRejects(t *testing.T) {
	hello := mustHex(goldenBodies[0].hex)
	stale := append([]byte(nil), hello...)
	binary.LittleEndian.PutUint16(stale, 1)
	// The plain client's Hello as a version-2 peer sends it: the role byte
	// after LocalSize is what version 3 dropped. Version 3 kept a relay's
	// leaf count and a tier name after LocalSize, which version 4 dropped.
	v2 := mustHex("0200" + "0700000000000000" + "6400000000000000" + "00" + "0000000000000000" + "0000")
	v3 := mustHex("0300" + "0700000000000000" + "6400000000000000" + "0000000000000000" + "0000")
	for _, tt := range []struct {
		name string
		typ  MsgType
		body []byte
		want string
	}{
		{"garbage", MsgHello, []byte{0xde, 0xad, 0xbe, 0xef}, "version"},
		{"another protocol version", MsgHello, stale, "peer speaks wire-protocol version 1, this build speaks version 4"},
		{"version-2 hello", MsgHello, v2, "peer speaks wire-protocol version 2"},
		{"version-3 hello", MsgHello, v3, "peer speaks wire-protocol version 3"},
		{"hello above the handshake limit", MsgHello, append(hello, make([]byte, maxHelloBytes)...), "handshake limit"},
		{"list longer than the body", MsgWelcome, mustHex("0400000000000000" + "0a00000000000000" + "ffff" + "0000"), "list of 65535 strings ends inside entry 1"},
		{"state longer than the body", MsgClientUpdate, append(make([]byte, 60), mustHex("ffffffff00")...), "state declares 4294967295 bytes, 1 remain"},
		{"state shorter than the body", MsgClientUpdate, append(make([]byte, 60), mustHex("0100000000ff")...), "state declares 1 bytes, 2 remain"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if checkDecode(t, tt.typ, tt.body) {
				t.Fatal("accepted")
			}
			_, err := decodeAs(tt.typ, tt.body)
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	// The envelope's type and the destination struct must agree.
	var w Welcome
	if err := DecodeBody(Envelope{Type: MsgHello, Body: hello}, &w); !errors.Is(err, ErrProtocol) {
		t.Fatalf("hello body into a Welcome: %v", err)
	}
	if err := DecodeBody(Envelope{Type: MsgHello, Body: hello}, w); err == nil {
		t.Fatal("decode into a non-pointer accepted")
	}
}

func TestEncodeBodyRejects(t *testing.T) {
	long := strings.Repeat("x", maxStringBytes+1)
	for _, tt := range []struct {
		name string
		typ  MsgType
		msg  any
	}{
		{"type tag and struct disagree", MsgWelcome, Hello{}},
		{"pointer instead of value", MsgHello, &Hello{}},
		{"not a message", MsgHello, 7},
		{"string past the u16 prefix", MsgShutdown, Shutdown{Reason: long}},
		{"list past the u16 count", MsgRoundStart, RoundStart{Layout: make([]string, maxListEntries+1)}},
		{"list entry past the u16 prefix", MsgClientUpdate, ClientUpdate{Groups: []string{long}}},
		{"state above the frame limit", MsgClientUpdate, ClientUpdate{State: make([]byte, maxFrameBytes+1)}},
	} {
		if _, err := EncodeBody(tt.typ, tt.msg); err == nil {
			t.Errorf("%s: encoded", tt.name)
		}
	}
}

// TestSharedBroadcastBodyStaysUnmodified is the aliasing contract, run under
// -race in CI: the engines encode a RoundStart once and hand the same
// Envelope to every recipient, and over the pipe transport each recipient
// then holds the sender's very slice. Every client here does what fedclient
// does with it — decode the state out of the shared body, change the decoded
// tensors, send them back — while the others are still reading, and the
// server folds updates whose State aliases the clients' bodies. A write into
// any body is a data race; the final comparison catches it without -race.
func TestSharedBroadcastBodyStaysUnmodified(t *testing.T) {
	blob := mustEncode(t, randomTensors(rand.New(rand.NewSource(3)), 4))
	env, err := EncodeBody(MsgRoundStart, RoundStart{Round: 1, State: blob, Groups: canonicalGroups, LocalEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sent := bytes.Clone(env.Body)

	const clients = 8
	updates := make(chan ClientUpdate, clients)
	for id := 0; id < clients; id++ {
		server, client := Pipe()
		go func(id int) {
			sess := &ClientSession{conn: client}
			rs, ok, err := sess.NextRound()
			if err != nil || !ok {
				t.Errorf("client %d: next round: %v", id, err)
				return
			}
			if !within(rs.State, env.Body) {
				t.Errorf("client %d: state was copied out of the broadcast body", id)
			}
			ts, err := DecodeTensors(rs.State)
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			for _, x := range ts {
				x.Data()[0] += float32(id)
			}
			out, err := EncodeTensors(ts)
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			if err := sess.SendUpdate(ClientUpdate{ClientID: id, Round: 1, State: out, NumSelected: 1}); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id)
		go func(id int) {
			var u ClientUpdate
			if err := server.Send(env); err != nil {
				t.Errorf("send to %d: %v", id, err)
			} else if reply, err := server.Recv(); err != nil {
				t.Errorf("recv from %d: %v", id, err)
			} else if err := DecodeBody(reply, &u); err != nil {
				t.Errorf("decode from %d: %v", id, err)
			}
			updates <- u
		}(id)
	}
	agg := NewStreamAggregator()
	for i := 0; i < clients; i++ {
		if u := <-updates; u.State != nil {
			if err := agg.Add(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if agg.Updates() != clients {
		t.Fatalf("folded %d of %d updates", agg.Updates(), clients)
	}
	if !bytes.Equal(env.Body, sent) {
		t.Fatal("the shared broadcast body was modified")
	}
}
