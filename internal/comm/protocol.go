package comm

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"
)

// shutdownTimeout bounds each shutdown send, so a hung client that stopped
// reading cannot wedge the server at exit.
const shutdownTimeout = 10 * time.Second

// handshakeTimeout bounds the server half of one registration — reading the
// Hello and writing the Welcome — so a socket that connects and then says
// nothing holds the accept loop, and its descriptor, only this long. A
// variable only so tests can compress it.
var handshakeTimeout = 10 * time.Second

// ServerSession coordinates a registered set of federated clients over any
// Transport. It implements the server half of the wire protocol.
type ServerSession struct {
	conns map[int]Conn // by client ID
	sizes map[int]int  // local dataset sizes reported at Hello, by client ID
	// parked holds re-registrations under a still-registered ID until it is
	// vacated (Admitter.Drain).
	parked map[int]admission
}

// AcceptClientsCodec blocks until numClients clients have registered,
// answering each Hello with a Welcome that advertises codec as the session's
// uplink codec (see advertiseCodecs). On error every accepted connection —
// including the one mid-handshake — is closed before returning, so no
// descriptor leaks.
//
// A connection that never delivers a well-framed first message within
// handshakeTimeout — silence, a torn frame, a length prefix above
// maxHelloBytes — is noise on an open port: it is closed and accepting goes
// on. A well-framed message that is not an acceptable Hello (another type,
// another protocol version, a duplicate ID) is a misconfigured peer and
// fails the accept.
func AcceptClientsCodec(l Listener, numClients, rounds int, codec string) (*ServerSession, error) {
	if numClients <= 0 {
		return nil, fmt.Errorf("%w: numClients %d", ErrProtocol, numClients)
	}
	welcome, err := EncodeBody(MsgWelcome, Welcome{NumClients: numClients, Rounds: rounds, Codecs: advertiseCodecs(codec)})
	if err != nil {
		return nil, err
	}
	s := &ServerSession{
		conns: make(map[int]Conn, numClients),
		sizes: make(map[int]int, numClients),
	}
	fail := func(conn Conn, err error) (*ServerSession, error) {
		if conn != nil {
			_ = conn.Close()
		}
		for _, c := range s.conns {
			_ = c.Close()
		}
		return nil, err
	}
	for len(s.conns) < numClients {
		conn, err := l.Accept()
		if err != nil {
			return fail(nil, fmt.Errorf("comm: accepting client %d of %d: %w", len(s.conns)+1, numClients, err))
		}
		env, err := firstFrame(conn, handshakeTimeout)
		if err != nil {
			log.Printf("comm: dropping connection before hello: %v", err)
			_ = conn.Close()
			continue
		}
		hello, err := helloFrom(env)
		if err != nil {
			return fail(conn, err)
		}
		if _, dup := s.conns[hello.ClientID]; dup {
			return fail(conn, fmt.Errorf("%w: duplicate client id %d", ErrProtocol, hello.ClientID))
		}
		if err := sendWelcome(conn, welcome); err != nil {
			return fail(conn, fmt.Errorf("comm: sending welcome to %d: %w", hello.ClientID, err))
		}
		s.admit(hello, conn)
	}
	return s, nil
}

// firstFrame reads a fresh connection's first frame under the handshake
// deadline timeout, which stays armed until sendWelcome clears it.
func firstFrame(conn Conn, timeout time.Duration) (Envelope, error) {
	if dc, ok := conn.(DeadlineConn); ok {
		_ = dc.SetDeadline(time.Now().Add(timeout))
	}
	return conn.Recv()
}

// helloFrom decodes a connection's first frame, which must be a Hello.
func helloFrom(env Envelope) (Hello, error) {
	if env.Type != MsgHello {
		return Hello{}, fmt.Errorf("%w: expected hello, got %v", ErrProtocol, env.Type)
	}
	var hello Hello
	err := DecodeBody(env, &hello)
	return hello, err
}

// sendWelcome completes the server half of a registration and lifts the
// handshake deadline.
func sendWelcome(conn Conn, welcome Envelope) error {
	if err := conn.Send(welcome); err != nil {
		return err
	}
	if dc, ok := conn.(DeadlineConn); ok {
		_ = dc.SetDeadline(time.Time{})
	}
	return nil
}

// advertiseCodecs renders a session codec name as the Welcome.Codecs
// advertisement: identity (or empty) advertises nothing, and anything else
// advertises exactly that one name.
func advertiseCodecs(codec string) []string {
	if codec == "" || codec == CodecIdentity {
		return nil
	}
	return []string{codec}
}

// admit registers one handshaked connection.
func (s *ServerSession) admit(hello Hello, conn Conn) {
	s.conns[hello.ClientID] = conn
	s.sizes[hello.ClientID] = hello.LocalSize
}

// LocalSize returns the local dataset size the client reported at
// registration (zero for unknown clients) — the scheduler's |D_i| signal.
func (s *ServerSession) LocalSize(id int) int { return s.sizes[id] }

// ClientIDs returns the registered client IDs in ascending order.
func (s *ServerSession) ClientIDs() []int {
	ids := make([]int, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Shutdown notifies every client concurrently, closes every connection even
// when sends fail (parked re-registrations are closed unnotified), and
// returns the joined errors in client-ID order.
func (s *ServerSession) Shutdown(reason string) error {
	env, err := EncodeBody(MsgShutdown, Shutdown{Reason: reason})
	if err != nil {
		return err
	}
	ids := s.ClientIDs()
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int, conn Conn) {
			defer wg.Done()
			if dc, ok := conn.(DeadlineConn); ok {
				_ = dc.SetDeadline(time.Now().Add(shutdownTimeout))
			}
			var sendErr, closeErr error
			if err := conn.Send(env); err != nil {
				sendErr = fmt.Errorf("comm: shutdown to %d: %w", id, err)
			}
			if err := conn.Close(); err != nil {
				closeErr = fmt.Errorf("comm: closing %d: %w", id, err)
			}
			errs[i] = errors.Join(sendErr, closeErr)
		}(i, id, s.conns[id])
	}
	wg.Wait()
	clear(s.conns)
	for _, adm := range s.parked {
		_ = adm.conn.Close()
	}
	clear(s.parked)
	return errors.Join(errs...)
}

// ClientSession is the client half of the wire protocol.
type ClientSession struct {
	conn Conn
}

// Join registers with the server and returns the session plus the server's
// Welcome. A relay joins its root the same way, declaring its region's
// summed dataset size.
func Join(conn Conn, clientID, localSize int) (*ClientSession, Welcome, error) {
	env, err := EncodeBody(MsgHello, Hello{ClientID: clientID, LocalSize: localSize})
	if err != nil {
		return nil, Welcome{}, err
	}
	if err := conn.Send(env); err != nil {
		return nil, Welcome{}, fmt.Errorf("comm: hello: %w", err)
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, Welcome{}, fmt.Errorf("comm: welcome: %w", err)
	}
	if reply.Type != MsgWelcome {
		return nil, Welcome{}, fmt.Errorf("%w: expected welcome, got %v", ErrProtocol, reply.Type)
	}
	var w Welcome
	if err := DecodeBody(reply, &w); err != nil {
		return nil, Welcome{}, err
	}
	return &ClientSession{conn: conn}, w, nil
}

// NextRound blocks for the next instruction. ok is false when the server
// shut the session down.
func (c *ClientSession) NextRound() (rs RoundStart, ok bool, err error) {
	env, err := c.conn.Recv()
	if err != nil {
		return RoundStart{}, false, err
	}
	switch env.Type {
	case MsgRoundStart:
		if err := DecodeBody(env, &rs); err != nil {
			return RoundStart{}, false, err
		}
		return rs, true, nil
	case MsgShutdown:
		return RoundStart{}, false, nil
	default:
		return RoundStart{}, false, fmt.Errorf("%w: unexpected %v", ErrProtocol, env.Type)
	}
}

// SendUpdate returns the client's trained state to the server.
func (c *ClientSession) SendUpdate(u ClientUpdate) error {
	env, err := EncodeBody(MsgClientUpdate, u)
	if err != nil {
		return err
	}
	return c.conn.Send(env)
}

// Close releases the client connection.
func (c *ClientSession) Close() error { return c.conn.Close() }
