package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Message bodies are hand-rolled and byte-specified (DESIGN.md "Message
// bodies" has the tables). Everything is little endian; the building blocks:
//
//	int     i64            every Go int field
//	float   u64            the exact IEEE-754 float64 bits, NaN payloads kept
//	bool    u8             0 or 1, nothing else
//	string  u16 n, n bytes
//	list    u16 count, count strings
//	state   u32 n, n bytes always the last field, and must end the body
//
// Fields are fixed in number and order, so there is exactly one encoding of
// a message and an accepted body re-encodes to the same bytes. Each decode
// below is a single composite literal: Go runs the reader calls in it left
// to right, so the literal lists the fields in wire order, like the encode
// above it. TestGoldenBodies pins both against hand-checked hex.

// protocolVersion is the wire-protocol revision this build speaks. It is the
// first field of every Hello, so a peer from another revision is refused by
// name at registration instead of failing somewhere inside a later decode.
// Version 1 is retroactively the gob-bodied protocol, which never sent one.
const protocolVersion = 2

// maxHelloBytes bounds an encoded Hello. The 29 fixed bytes leave four
// kilobytes for the tier name, and a server refuses a connection's first
// frame above it before allocating anything.
const maxHelloBytes = 4 << 10

const (
	maxStringBytes = math.MaxUint16 // a u16-prefixed string
	maxListEntries = math.MaxUint16 // a u16-counted string list
)

// EncodeBody encodes a message struct (by value) into an envelope. The body
// is one allocation of exactly the encoded size.
func EncodeBody(t MsgType, v any) (Envelope, error) {
	var (
		want MsgType
		body []byte
		err  error
	)
	switch m := v.(type) {
	case Hello:
		want = MsgHello
		body, err = m.encode()
	case Welcome:
		want = MsgWelcome
		body, err = m.encode()
	case RoundStart:
		want = MsgRoundStart
		body, err = m.encode()
	case ClientUpdate:
		want = MsgClientUpdate
		body, err = m.encode()
	case Shutdown:
		want = MsgShutdown
		body, err = m.encode()
	case RegionUpdate:
		want = MsgRegionUpdate
		body, err = m.encode()
	default:
		// v stays out of the message: formatting it would move every
		// caller's struct to the heap.
		return Envelope{}, fmt.Errorf("comm: encode %v: body is not a message struct passed by value", t)
	}
	if err == nil && want != t {
		err = fmt.Errorf("body is a %v message", want)
	}
	if err != nil {
		return Envelope{}, fmt.Errorf("comm: encode %v: %w", t, err)
	}
	return Envelope{Type: t, Body: body}, nil
}

// DecodeBody decodes an envelope body into v, a pointer to the message
// struct matching e.Type, overwriting every field. Each length is checked
// against the bytes that remain before anything is allocated; a torn body
// and trailing bytes are both ErrProtocol. The decoded State aliases e.Body
// — the one copy of the model state a received frame ever makes — so a body
// is immutable once sent or received.
func DecodeBody(e Envelope, v any) error {
	r := bodyReader{b: e.Body}
	var want MsgType
	switch m := v.(type) {
	case *Hello:
		want = MsgHello
		m.decode(&r)
	case *Welcome:
		want = MsgWelcome
		m.decode(&r)
	case *RoundStart:
		want = MsgRoundStart
		m.decode(&r)
	case *ClientUpdate:
		want = MsgClientUpdate
		m.decode(&r)
	case *Shutdown:
		want = MsgShutdown
		m.decode(&r)
	case *RegionUpdate:
		want = MsgRegionUpdate
		m.decode(&r)
	default:
		return fmt.Errorf("comm: decode %v: destination is not a pointer to a message struct", e.Type)
	}
	if r.err == nil && want != e.Type {
		r.err = fmt.Errorf("%w: decoding into a %v message", ErrProtocol, want)
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("comm: decode %v: %w", e.Type, r.err)
	}
	return nil
}

func (m *Hello) encode() ([]byte, error) {
	if err := checkStrings(m.Tier); err != nil {
		return nil, err
	}
	size := 2 + 8 + 8 + 1 + 8 + sizeString(m.Tier)
	if size > maxHelloBytes {
		return nil, fmt.Errorf("hello of %d bytes exceeds the %d-byte handshake limit", size, maxHelloBytes)
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint16(b, protocolVersion)
	b = appendInt(b, m.ClientID)
	b = appendInt(b, m.LocalSize)
	b = appendBool(b, m.Relay)
	b = appendInt(b, m.Clients)
	return appendString(b, m.Tier), nil
}

func (m *Hello) decode(r *bodyReader) {
	if len(r.b) > maxHelloBytes {
		r.fail("hello of %d bytes exceeds the %d-byte handshake limit", len(r.b), maxHelloBytes)
		return
	}
	if v := r.u16(); r.err == nil && v != protocolVersion {
		r.fail("peer speaks wire-protocol version %d, this build speaks version %d", v, protocolVersion)
		return
	}
	*m = Hello{ClientID: r.int(), LocalSize: r.int(), Relay: r.bool(), Clients: r.int(), Tier: r.str()}
}

func (m *Welcome) encode() ([]byte, error) {
	if err := checkStrings(m.Codecs...); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 8+8+sizeStrings(m.Codecs))
	b = appendInt(b, m.NumClients)
	b = appendInt(b, m.Rounds)
	return appendStrings(b, m.Codecs), nil
}

func (m *Welcome) decode(r *bodyReader) {
	*m = Welcome{NumClients: r.int(), Rounds: r.int(), Codecs: r.strs()}
}

func (m *RoundStart) encode() ([]byte, error) {
	if err := checkState(m.State, m.Groups, m.Layout); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 8+8+8+8+sizeStrings(m.Groups)+sizeStrings(m.Layout)+sizeState(m.State))
	b = appendInt(b, m.Round)
	b = appendInt(b, m.LocalEpochs)
	b = appendInt(b, m.Version)
	b = appendFloat(b, m.SelectFraction)
	b = appendStrings(b, m.Groups)
	b = appendStrings(b, m.Layout)
	return appendState(b, m.State), nil
}

func (m *RoundStart) decode(r *bodyReader) {
	*m = RoundStart{Round: r.int(), LocalEpochs: r.int(), Version: r.int(), SelectFraction: r.float(),
		Groups: r.strs(), Layout: r.strs(), State: r.state()}
}

func (m *ClientUpdate) encode() ([]byte, error) {
	if err := checkState(m.State, m.Groups, []string{m.Codec}); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 4*8+3*8+sizeString(m.Codec)+sizeStrings(m.Groups)+sizeState(m.State))
	b = appendInt(b, m.ClientID)
	b = appendInt(b, m.Round)
	b = appendInt(b, m.Version)
	b = appendInt(b, m.NumSelected)
	b = appendFloat(b, m.TrainSeconds)
	b = appendFloat(b, m.TrainLoss)
	b = appendFloat(b, m.MeanEntropy)
	b = appendString(b, m.Codec)
	b = appendStrings(b, m.Groups)
	return appendState(b, m.State), nil
}

func (m *ClientUpdate) decode(r *bodyReader) {
	*m = ClientUpdate{ClientID: r.int(), Round: r.int(), Version: r.int(), NumSelected: r.int(),
		TrainSeconds: r.float(), TrainLoss: r.float(), MeanEntropy: r.float(),
		Codec: r.str(), Groups: r.strs(), State: r.state()}
}

func (m *Shutdown) encode() ([]byte, error) {
	if err := checkStrings(m.Reason); err != nil {
		return nil, err
	}
	return appendString(make([]byte, 0, sizeString(m.Reason)), m.Reason), nil
}

func (m *Shutdown) decode(r *bodyReader) { *m = Shutdown{Reason: r.str()} }

func (m *RegionUpdate) encode() ([]byte, error) {
	if err := checkState(m.State, []string{m.Codec}); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 5*8+4*8+sizeString(m.Codec)+sizeState(m.State))
	b = appendInt(b, m.RelayID)
	b = appendInt(b, m.Round)
	b = appendInt(b, m.Version)
	b = appendInt(b, m.Clients)
	b = appendInt(b, m.NumSelected)
	b = appendFloat(b, m.Weight)
	b = appendFloat(b, m.TrainSeconds)
	b = appendFloat(b, m.TrainLoss)
	b = appendFloat(b, m.MeanEntropy)
	b = appendString(b, m.Codec)
	return appendState(b, m.State), nil
}

func (m *RegionUpdate) decode(r *bodyReader) {
	*m = RegionUpdate{RelayID: r.int(), Round: r.int(), Version: r.int(), Clients: r.int(), NumSelected: r.int(),
		Weight: r.float(), TrainSeconds: r.float(), TrainLoss: r.float(), MeanEntropy: r.float(),
		Codec: r.str(), State: r.state()}
}

// checkStrings refuses strings and lists the u16 prefixes cannot describe.
func checkStrings(ss ...string) error {
	if len(ss) > maxListEntries {
		return fmt.Errorf("list of %d strings exceeds the wire limit %d", len(ss), maxListEntries)
	}
	for _, s := range ss {
		if len(s) > maxStringBytes {
			return fmt.Errorf("string of %d bytes exceeds the wire limit %d", len(s), maxStringBytes)
		}
	}
	return nil
}

// checkState is checkStrings over several lists plus the state blob's bound.
func checkState(state []byte, lists ...[]string) error {
	if len(state) > maxFrameBytes {
		return fmt.Errorf("state of %d bytes exceeds the %d-byte frame limit", len(state), maxFrameBytes)
	}
	for _, l := range lists {
		if err := checkStrings(l...); err != nil {
			return err
		}
	}
	return nil
}

func sizeString(s string) int { return 2 + len(s) }

func sizeStrings(ss []string) int {
	n := 2
	for _, s := range ss {
		n += sizeString(s)
	}
	return n
}

func sizeState(p []byte) int { return 4 + len(p) }

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(int64(v))) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendState(b, p []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(p))), p...)
}

// bodyReader consumes a body front to back. The first failure sticks: every
// later getter returns a zero value, so a decode reads as one expression and
// checks err once.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil after recording a truncation.
func (r *bodyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("truncated: need %d bytes, %d remain", n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *bodyReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *bodyReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *bodyReader) int() int {
	v := int64(r.u64())
	if int64(int(v)) != v {
		r.fail("integer %d overflows this platform's int", v)
		return 0
	}
	return int(v)
}

func (r *bodyReader) float() float64 { return math.Float64frombits(r.u64()) }

func (r *bodyReader) bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.fail("bool byte %#x", p[0])
	}
	return p[0] == 1
}

func (r *bodyReader) str() string { return string(r.take(int(r.u16()))) }

// strs reads a string list; an empty list decodes as nil. The entries are
// walked before the slice is made, so a count the body cannot back allocates
// nothing.
func (r *bodyReader) strs() []string {
	n := int(r.u16())
	if n == 0 || r.err != nil {
		return nil
	}
	rest := r.b
	for i := 0; i < n; i++ {
		if len(rest) < 2 || len(rest)-2 < int(binary.LittleEndian.Uint16(rest)) {
			r.fail("truncated: list of %d strings ends inside entry %d", n, i)
			return nil
		}
		rest = rest[2+int(binary.LittleEndian.Uint16(rest)):]
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// state reads the trailing state blob without copying it: the declared
// length must be exactly what remains of the body. Empty decodes as nil.
func (r *bodyReader) state() []byte {
	p := r.take(4)
	if p == nil {
		return nil
	}
	if n := binary.LittleEndian.Uint32(p); uint64(n) != uint64(len(r.b)) {
		r.fail("state declares %d bytes, %d remain", n, len(r.b))
		return nil
	}
	if len(r.b) == 0 {
		return nil
	}
	return r.take(len(r.b))
}
