package comm

import (
	"log"
	"sort"
	"time"
)

// admission is one completed Hello/Welcome handshake waiting to be drained
// into a ServerSession.
type admission struct {
	hello Hello
	conn  Conn
}

// Admitter keeps a listener open after the initial accept phase and
// handshakes late arrivals in the background, so a crashed peer (a relay
// region, or a client) can re-register mid-run. The session itself stays
// single-writer: handshaked connections queue here and the serving loop
// folds them in with Drain at a round boundary, never mid-round.
type Admitter struct {
	ch      chan admission
	welcome Envelope
	timeout time.Duration // handshakeTimeout when the Admitter was built
}

// NewAdmitterCodec starts accepting re-registrations on l. numClients and
// rounds fill the Welcome frame and codec its uplink-codec advertisement
// (matching the initial AcceptClientsCodec handshake, so a re-registering
// peer negotiates the same session codec). Closing the listener stops the
// background acceptor.
func NewAdmitterCodec(l Listener, numClients, rounds int, codec string) (*Admitter, error) {
	welcome, err := EncodeBody(MsgWelcome, Welcome{NumClients: numClients, Rounds: rounds, Codecs: advertiseCodecs(codec)})
	if err != nil {
		return nil, err
	}
	a := &Admitter{ch: make(chan admission, 64), welcome: welcome, timeout: handshakeTimeout}
	go a.acceptLoop(l)
	return a, nil
}

// acceptLoop accepts until the listener closes, handshaking each arrival in
// its own goroutine so one wedged dialer cannot block later rejoins.
func (a *Admitter) acceptLoop(l Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go a.handshake(conn)
	}
}

// handshake performs the server half of the registration exchange, bounded
// by the Admitter's timeout, and queues the connection for the next Drain. On
// any error, or when the queue is full, the connection is closed — the peer
// retries with its usual backoff.
func (a *Admitter) handshake(conn Conn) {
	var hello Hello
	env, err := firstFrame(conn, a.timeout)
	if err == nil {
		hello, err = helloFrom(env)
	}
	if err == nil {
		err = sendWelcome(conn, a.welcome)
	}
	if err != nil {
		_ = conn.Close()
		return
	}
	select {
	case a.ch <- admission{hello: hello, conn: conn}:
	default:
		_ = conn.Close()
	}
}

// Drain folds the queued re-registrations into the session and returns the
// re-admitted IDs, ascending. Non-blocking; call it at a round boundary.
//
// A re-registration whose ID is still registered is parked, not refused: a
// peer restarted faster than the server noticed its crash completes the
// handshake while its dead connection still holds the ID, and would
// otherwise be turned away for good. The round that follows drops the dead
// connection, and the Drain after it admits the parked one. Two connections
// are never registered under one ID, so an impostor of a live peer simply
// stays parked until Shutdown closes it.
func (a *Admitter) Drain(s *ServerSession) []int {
	for {
		select {
		case adm := <-a.ch:
			id := adm.hello.ClientID
			if old, ok := s.parked[id]; ok {
				// The peer restarted again; the older connection's far end is gone.
				_ = old.conn.Close()
			}
			if _, live := s.conns[id]; live {
				log.Printf("comm: parking re-registration of client %d until its registered connection is dropped", id)
			}
			if s.parked == nil {
				s.parked = make(map[int]admission)
			}
			s.parked[id] = adm
		default:
			var ids []int
			for id, adm := range s.parked {
				if _, live := s.conns[id]; !live {
					s.admit(adm.hello, adm.conn)
					delete(s.parked, id)
					ids = append(ids, id)
				}
			}
			sort.Ints(ids)
			return ids
		}
	}
}
