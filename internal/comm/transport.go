package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrameBytes bounds a single message frame (64 MiB) so a corrupt length
// prefix cannot trigger an enormous allocation.
const maxFrameBytes = 64 << 20

// frameHeaderBytes is the frame header: u32 body length, u8 message type.
const frameHeaderBytes = 5

// Envelope is one framed message: a type tag and the encoded body (see
// EncodeBody). A body is immutable once sent or received: a broadcast shares
// one body across every recipient, the pipe transport hands the sender's
// slice to the receiver, and a decoded State aliases it.
type Envelope struct {
	// Type identifies the body's message struct.
	Type MsgType
	// Body is the encoded message struct.
	Body []byte
}

// Conn is a bidirectional, message-oriented connection between one client
// and the server. Send and Recv are each safe for one goroutine at a time.
type Conn interface {
	// Send writes one envelope.
	Send(Envelope) error
	// Recv reads the next envelope, blocking until one arrives.
	Recv() (Envelope, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
}

// DeadlineConn is a Conn whose blocking Send and Recv calls can be bounded
// in time. Both transports implement it; the RoundEngine uses it to turn a
// hung client into a timeout instead of a wedged server.
type DeadlineConn interface {
	Conn
	// SetDeadline bounds all future Send and Recv calls. The zero time
	// clears the deadline.
	SetDeadline(time.Time) error
}

// TCPConn frames envelopes over a net.Conn:
// 4-byte little-endian length, 1-byte type, body.
//
// A deadline that expires between frames is a clean timeout: the stream
// stays aligned and the connection remains usable (the round engine's
// straggler-rejoin path relies on this). A deadline that expires mid-frame
// leaves the stream desynchronized, so the connection marks itself broken
// and every later call fails with ErrProtocol — never a timeout — which
// makes the engine drop the client instead of reusing a corrupt stream.
type TCPConn struct {
	conn net.Conn

	// The frame header and the write vector live here, each under its
	// direction's mutex, rather than on the stack: handing a slice to the
	// net.Conn interface would move a local to the heap on every call.
	sendMu   sync.Mutex
	sendHdr  [frameHeaderBytes]byte
	sendVec  [2][]byte
	sendBufs net.Buffers

	recvMu  sync.Mutex
	recvHdr [frameHeaderBytes]byte
	// recvLimit caps the next frame's body. An accepted connection starts at
	// maxHelloBytes — nothing but a Hello may open it — and every connection
	// runs at maxFrameBytes once a frame has been read.
	recvLimit uint32

	broken atomic.Bool
}

var _ Conn = (*TCPConn)(nil)

// NewTCPConn wraps an established net.Conn.
func NewTCPConn(conn net.Conn) *TCPConn { return &TCPConn{conn: conn, recvLimit: maxFrameBytes} }

// DesyncError reports a frame operation that failed mid-frame, leaving the
// stream desynchronized. It matches ErrProtocol under errors.Is but
// deliberately does NOT unwrap to its cause: a mid-frame deadline expiry
// must classify as a protocol error (drop the corrupt connection), never as
// a recoverable timeout. Callers that need the cause — e.g. fedclient
// telling a severed connection from a local fault — read Cause directly.
type DesyncError struct {
	// Op names the failed frame operation ("write body", "read header", ...).
	Op string
	// Cause is the underlying transport error. Not part of the Is/As chain.
	Cause error
}

// Error implements error.
func (e *DesyncError) Error() string {
	return fmt.Sprintf("%v: %s failed mid-frame, stream desynchronized: %v", ErrProtocol, e.Op, e.Cause)
}

// Is reports ErrProtocol, the class every desynchronized stream belongs to.
func (e *DesyncError) Is(target error) bool { return target == ErrProtocol }

// desync marks the stream unusable and returns the wrapping error.
func (c *TCPConn) desync(op string, err error) error {
	c.broken.Store(true)
	return &DesyncError{Op: op, Cause: err}
}

// Send implements Conn.
func (c *TCPConn) Send(e Envelope) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.broken.Load() {
		return fmt.Errorf("%w: connection desynchronized", ErrProtocol)
	}
	if len(e.Body) > maxFrameBytes {
		return fmt.Errorf("%w: frame %d bytes exceeds limit", ErrProtocol, len(e.Body))
	}
	binary.LittleEndian.PutUint32(c.sendHdr[:], uint32(len(e.Body)))
	c.sendHdr[4] = byte(e.Type)
	// Header and body leave in one vectored write: with TCP_NODELAY (Go's
	// default) a separate header write is its own segment and syscall.
	c.sendVec = [2][]byte{c.sendHdr[:], e.Body}
	c.sendBufs = c.sendVec[:]
	n, err := c.sendBufs.WriteTo(c.conn)
	c.sendVec[1] = nil // the connection must not keep the body alive
	switch {
	case err == nil:
		return nil
	case n == 0:
		// Nothing reached the wire; the stream is still aligned.
		return fmt.Errorf("comm: write header: %w", err)
	case n < frameHeaderBytes:
		return c.desync("write header", err)
	default:
		return c.desync("write body", err)
	}
}

// Recv implements Conn.
func (c *TCPConn) Recv() (Envelope, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.broken.Load() {
		return Envelope{}, fmt.Errorf("%w: connection desynchronized", ErrProtocol)
	}
	if n, err := io.ReadFull(c.conn, c.recvHdr[:]); err != nil {
		if n > 0 {
			return Envelope{}, c.desync("read header", err)
		}
		return Envelope{}, fmt.Errorf("comm: read header: %w", err)
	}
	size := binary.LittleEndian.Uint32(c.recvHdr[:])
	if size > c.recvLimit {
		return Envelope{}, fmt.Errorf("%w: frame %d bytes exceeds limit %d", ErrProtocol, size, c.recvLimit)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(c.conn, body); err != nil {
		return Envelope{}, c.desync("read body", err)
	}
	c.recvLimit = maxFrameBytes
	return Envelope{Type: MsgType(c.recvHdr[4]), Body: body}, nil
}

// Close implements Conn.
func (c *TCPConn) Close() error { return c.conn.Close() }

// SetDeadline bounds both read and write operations.
func (c *TCPConn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Listener accepts federated clients.
type Listener interface {
	// Accept blocks for the next client connection.
	Accept() (Conn, error)
	// Addr returns the listen address.
	Addr() string
	// Close stops accepting.
	Close() error
}

// TCPListener adapts net.Listener to the comm.Listener interface.
type TCPListener struct {
	l net.Listener
}

var _ Listener = (*TCPListener)(nil)

// ListenTCP starts a listener on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (*TCPListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addr, err)
	}
	return &TCPListener{l: l}, nil
}

// Accept implements Listener.
func (t *TCPListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("comm: accept: %w", err)
	}
	conn := NewTCPConn(c)
	conn.recvLimit = maxHelloBytes
	return conn, nil
}

// Addr implements Listener.
func (t *TCPListener) Addr() string { return t.l.Addr().String() }

// Close implements Listener.
func (t *TCPListener) Close() error { return t.l.Close() }

// DialTCP connects to a fedserver.
func DialTCP(addr string, timeout time.Duration) (*TCPConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("comm: dial %s: %w", addr, err)
	}
	return NewTCPConn(c), nil
}

// dialRetryBase is the first backoff delay of DialTCPRetry; each further
// attempt doubles it, capped at dialRetryCap. Package variables so tests
// can compress the schedule.
var (
	dialRetryBase = 100 * time.Millisecond
	dialRetryCap  = 5 * time.Second
)

// DialTCPRetry is DialTCP with a bounded exponential-backoff retry loop for
// transient startup races (a client or relay launched moments before its
// server listens): after a failed dial it sleeps base, 2·base, 4·base, ...
// (capped) and redials, up to retries additional attempts. retries <= 0
// behaves exactly like DialTCP. The last dial error is returned, wrapped
// with the attempt count.
func DialTCPRetry(addr string, timeout time.Duration, retries int) (*TCPConn, error) {
	conn, err := DialTCP(addr, timeout)
	if err == nil || retries <= 0 {
		return conn, err
	}
	backoff := dialRetryBase
	for attempt := 1; attempt <= retries; attempt++ {
		time.Sleep(backoff)
		if backoff *= 2; backoff > dialRetryCap {
			backoff = dialRetryCap
		}
		if conn, err = DialTCP(addr, timeout); err == nil {
			return conn, nil
		}
	}
	return nil, fmt.Errorf("comm: dial %s failed after %d attempts: %w", addr, retries+1, err)
}

// Pipe returns a connected in-process transport pair, used by tests and the
// single-process distributed example. Each side's Send delivers to the other
// side's Recv through a buffered channel.
func Pipe() (Conn, Conn) {
	a2b := make(chan Envelope, 1)
	b2a := make(chan Envelope, 1)
	done := make(chan struct{})
	var once sync.Once
	closeDone := func() { once.Do(func() { close(done) }) }
	a := &pipeConn{send: a2b, recv: b2a, done: done, close: closeDone}
	b := &pipeConn{send: b2a, recv: a2b, done: done, close: closeDone}
	return a, b
}

// pipeConn is one side of an in-process connection.
type pipeConn struct {
	send  chan Envelope
	recv  chan Envelope
	done  chan struct{}
	close func()

	mu       sync.Mutex
	deadline time.Time
}

var _ DeadlineConn = (*pipeConn)(nil)

// SetDeadline implements DeadlineConn.
func (p *pipeConn) SetDeadline(t time.Time) error {
	p.mu.Lock()
	p.deadline = t
	p.mu.Unlock()
	return nil
}

// expiry returns a channel that fires at the current deadline, or a nil
// channel (blocks forever) when no deadline is set. The returned error is
// non-nil when the deadline has already passed.
func (p *pipeConn) expiry() (<-chan time.Time, *time.Timer, error) {
	p.mu.Lock()
	d := p.deadline
	p.mu.Unlock()
	if d.IsZero() {
		return nil, nil, nil
	}
	rem := time.Until(d)
	if rem <= 0 {
		return nil, nil, fmt.Errorf("comm: pipe: %w", ErrTimeout)
	}
	timer := time.NewTimer(rem)
	return timer.C, timer, nil
}

// Send implements Conn.
func (p *pipeConn) Send(e Envelope) error {
	expired, timer, err := p.expiry()
	if err != nil {
		return err
	}
	if timer != nil {
		defer timer.Stop()
	}
	// Fail deterministically once closed: with buffer space free, the
	// select below could otherwise pick the send case at random.
	select {
	case <-p.done:
		return fmt.Errorf("%w: connection closed", ErrProtocol)
	default:
	}
	select {
	case p.send <- e:
		return nil
	case <-p.done:
		return fmt.Errorf("%w: connection closed", ErrProtocol)
	case <-expired:
		return fmt.Errorf("comm: pipe send: %w", ErrTimeout)
	}
}

// Recv implements Conn.
func (p *pipeConn) Recv() (Envelope, error) {
	expired, timer, err := p.expiry()
	if err != nil {
		return Envelope{}, err
	}
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case e := <-p.recv:
		return e, nil
	case <-p.done:
		// Drain anything already queued before reporting closure.
		select {
		case e := <-p.recv:
			return e, nil
		default:
		}
		return Envelope{}, fmt.Errorf("%w: connection closed", ErrProtocol)
	case <-expired:
		return Envelope{}, fmt.Errorf("comm: pipe recv: %w", ErrTimeout)
	}
}

// Close implements Conn.
func (p *pipeConn) Close() error {
	p.close()
	return nil
}

// PipeListener serves the server halves of pre-created in-process pipe
// pairs, so a ServerSession and its clients can run the full wire protocol
// inside one process (the tests' in-process federations).
type PipeListener struct {
	mu     sync.Mutex
	server []Conn
	client []Conn
	next   int
}

var _ Listener = (*PipeListener)(nil)

// NewPipeListener creates n connected pipe pairs. The server halves are
// handed out by Accept; ClientSide returns the matching client halves.
func NewPipeListener(n int) *PipeListener {
	l := &PipeListener{server: make([]Conn, n), client: make([]Conn, n)}
	for i := range l.server {
		l.server[i], l.client[i] = Pipe()
	}
	return l
}

// ClientSide returns the client half of pair i.
func (l *PipeListener) ClientSide(i int) Conn { return l.client[i] }

// Accept implements Listener.
func (l *PipeListener) Accept() (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next >= len(l.server) {
		return nil, fmt.Errorf("%w: all %d pipe clients accepted", ErrProtocol, len(l.server))
	}
	c := l.server[l.next]
	l.next++
	return c, nil
}

// Addr implements Listener.
func (l *PipeListener) Addr() string { return "pipe" }

// Close implements Listener.
func (l *PipeListener) Close() error { return nil }
