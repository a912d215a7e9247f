package comm

import (
	"log"
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
}

// NewAdmitter starts accepting re-registrations on l. numClients and rounds
// fill the Welcome frame (matching the initial AcceptClients handshake).
// Closing the listener stops the background acceptor.
func NewAdmitter(l Listener, numClients, rounds int) (*Admitter, error) {
	return NewAdmitterCodec(l, numClients, rounds, "")
}

// NewAdmitterCodec is NewAdmitter with an uplink-codec advertisement, so a
// re-registering peer negotiates the same session codec the initial accept
// phase advertised.
func NewAdmitterCodec(l Listener, numClients, rounds int, codec string) (*Admitter, error) {
	welcome, err := EncodeBody(MsgWelcome, Welcome{NumClients: numClients, Rounds: rounds, Codecs: advertiseCodecs(codec)})
	if err != nil {
		return nil, err
	}
	a := &Admitter{ch: make(chan admission, 64), welcome: welcome}
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
// by handshakeTimeout, and queues the connection for the next Drain. On any
// error, or when the queue is full, the connection is closed — the peer
// retries with its usual backoff.
func (a *Admitter) handshake(conn Conn) {
	var hello Hello
	env, err := firstFrame(conn)
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

// Drain folds every queued re-registration into the session and returns the
// re-admitted IDs. Non-blocking; call it at a round boundary. A duplicate
// of a still-live ID is rejected and its connection closed.
func (a *Admitter) Drain(s *ServerSession) []int {
	var ids []int
	for {
		select {
		case adm := <-a.ch:
			if err := s.Admit(adm.hello, adm.conn); err != nil {
				log.Printf("comm: rejecting re-registration of client %d: %v", adm.hello.ClientID, err)
				_ = adm.conn.Close()
				continue
			}
			ids = append(ids, adm.hello.ClientID)
		default:
			return ids
		}
	}
}
