package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"fedfteds/internal/comm"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID != 0 || cfg.NumClients != 2 || cfg.Temperature != 0.1 || cfg.timeout != 10*time.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Strat == nil || cfg.Strat.Name() != "fedavg" || cfg.Strat.LocalHook() != nil {
		t.Fatalf("strategy must default to plain fedavg: %+v", cfg.Strat)
	}
}

// TestParseFlagsStrategyHook: the client accepts the shared strategy
// vocabulary; fedprox carries the proximal local hook into local updates.
func TestParseFlagsStrategyHook(t *testing.T) {
	cfg, err := parseFlags([]string{"-strategy", "fedprox:mu=0.05"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strat.LocalHook() == nil {
		t.Fatal("fedprox lost its local hook")
	}
}

func TestParseFlagsFailFast(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"negative id", []string{"-id", "-1"}, "-id"},
		{"id beyond federation", []string{"-id", "2", "-clients", "2"}, "-id"},
		{"zero clients", []string{"-clients", "0"}, "-clients"},
		{"zero temperature", []string{"-temperature", "0"}, "-temperature"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
		{"unknown strategy", []string{"-strategy", "sgd"}, "unknown strategy"},
		{"bad strategy parameter", []string{"-strategy", "fedprox:mu=0"}, "mu"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parseFlags(tt.args)
			if err == nil {
				t.Fatalf("args %v parsed without error", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestClassifyDropEviction pins the eviction contract: a transport-level
// connection drop becomes errEvicted with an actionable message, while
// every other error passes through untouched.
func TestClassifyDropEviction(t *testing.T) {
	drops := []error{
		fmt.Errorf("comm: read header: %w", io.EOF),
		fmt.Errorf("comm: read body: %w", io.ErrUnexpectedEOF),
		fmt.Errorf("send: %w", net.ErrClosed),
		&net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET},
		// The server dying while a frame was in flight: the desync wrapper
		// hides the cause from errors.Is, but eviction must still see it.
		&comm.DesyncError{Op: "write body", Cause: &net.OpError{Op: "write", Net: "tcp", Err: syscall.EPIPE}},
	}
	for _, cause := range drops {
		err := classifyDrop(4, 2, cause)
		if !errors.Is(err, errEvicted) {
			t.Fatalf("%v must classify as eviction, got %v", cause, err)
		}
		msg := err.Error()
		for _, want := range []string{"round 4", "client 2", "server log"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("eviction message %q missing %q", msg, want)
			}
		}
	}

	local := errors.New("core: client 2: loss: NaN")
	if got := classifyDrop(4, 2, local); got != local {
		t.Fatalf("local error must pass through, got %v", got)
	}
	// Timeout-class network errors are deadlines, not severed peers: the
	// real *net.OpError shape a deadline produces must pass through, bare
	// or desync-wrapped.
	timeout := &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
	if got := classifyDrop(4, 2, timeout); got != timeout {
		t.Fatalf("timeout must pass through, got %v", got)
	}
	timeoutDesync := &comm.DesyncError{Op: "read body", Cause: timeout}
	if got := classifyDrop(4, 2, timeoutDesync); got != timeoutDesync {
		t.Fatalf("timeout desync must pass through, got %v", got)
	}
}

// TestParseFlagsDialRetries pins the -dial-retries surface: off by default
// (a refused dial fails immediately, matching the pre-flag behavior),
// accepted as a non-negative attempt budget, rejected when negative.
func TestParseFlagsDialRetries(t *testing.T) {
	cfg, err := parseFlags([]string{"-dial-retries", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.dialRetries != 5 {
		t.Fatalf("dialRetries %d", cfg.dialRetries)
	}
	if _, err := parseFlags([]string{"-dial-retries", "-1"}); err == nil {
		t.Fatal("negative -dial-retries accepted")
	} else if !strings.Contains(err.Error(), "-dial-retries") {
		t.Fatalf("error %q does not mention the flag", err)
	}
}

// TestDialRetriesSurvivesLateServer is the client half of the any-order
// startup contract: a fedclient launched before its server listens must
// connect once the listener appears within the backoff schedule, using the
// same retry dialer run() uses.
func TestDialRetriesSurvivesLateServer(t *testing.T) {
	cfg, err := parseFlags([]string{"-dial-retries", "10", "-timeout", "1s"})
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a port, then free it so the first attempts are refused.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	accepted := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		l, err := comm.ListenTCP(addr)
		if err != nil {
			accepted <- err
			return
		}
		defer l.Close()
		conn, err := l.Accept()
		if err == nil {
			_ = conn.Close()
		}
		accepted <- err
	}()

	conn, err := comm.DialTCPRetry(addr, cfg.timeout, cfg.dialRetries)
	if err != nil {
		t.Fatalf("retry dial never connected: %v", err)
	}
	_ = conn.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("late server: %v", err)
	}
}
