package comm

import (
	"errors"
	"strings"
	"testing"
)

func TestTCPSendRejectsOversizedFrame(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err == nil {
			defer conn.Close()
		}
	}()
	client, err := DialTCP(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	<-done

	huge := Envelope{Type: MsgHello, Body: make([]byte, maxFrameBytes+1)}
	if err := client.Send(huge); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol for oversized frame, got %v", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for typ, want := range map[MsgType]string{
		MsgHello:        "hello",
		MsgWelcome:      "welcome",
		MsgRoundStart:   "round-start",
		MsgClientUpdate: "client-update",
		MsgShutdown:     "shutdown",
		MsgType(200):    "MsgType(200)",
	} {
		if got := typ.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", typ, got, want)
		}
	}
}

func TestJoinRejectsNonWelcomeReply(t *testing.T) {
	server, client := Pipe()
	go func() {
		if _, err := server.Recv(); err != nil {
			return
		}
		env, _ := EncodeBody(MsgShutdown, Shutdown{Reason: "nope"})
		_ = server.Send(env)
	}()
	_, _, err := Join(client, 0, 1)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol, got %v", err)
	}
}

func TestAcceptClientsValidation(t *testing.T) {
	if _, err := AcceptClientsCodec(&staticListener{}, 0, 1, ""); !errors.Is(err, ErrProtocol) {
		t.Fatalf("expected ErrProtocol for zero clients, got %v", err)
	}
}

func TestClientSessionUnexpectedMessage(t *testing.T) {
	server, client := Pipe()
	sess := &ClientSession{conn: client, ID: 0}
	go func() {
		env, _ := EncodeBody(MsgWelcome, Welcome{})
		_ = server.Send(env)
	}()
	_, _, err := sess.NextRound()
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("expected unexpected-message error, got %v", err)
	}
}
