// Command fedclient is one federated participant in the distributed mode:
// it regenerates its local non-IID partition deterministically from the
// shared -seed, -clients and its -id, connects to a fedserver, and answers
// each round with the local update the round's RoundStart describes — the
// client recipe: E, P_ds, learning rate, momentum, the data selector and its
// temperature, FedProx's proximal μ, and the groups to train (fedserver's
// default is FedFT-EDS: an entropy-selected subset, partial fine-tuning, only
// the upper model part on the wire) — plus its mean EDS entropy, the utility
// signal the server's cohort scheduler exploits.
//
// When the server schedules cohorts (-cohort on fedserver), rounds this
// client is not part of are invisible here: the client simply blocks until
// a cohort includes it again.
//
// When the server runs device tiers (-tiers/-tier-dist on fedserver), the
// RoundStart carries the tier distribution, and the client derives its
// device-capability tier from it, the shared seed and its -id: it trains
// only the layer groups the tier affords and ships only those groups'
// tensors — a masked layer costs zero uplink bytes. Its simulated compute
// rate is scaled down accordingly, so low-tier clients report realistically
// longer round times.
//
// -codec selects the uplink codec. The default "auto" adopts whatever the
// server's Welcome advertises (identity when it advertises nothing), so an
// unmodified fleet follows the server's -codec; an explicit name pins the
// expectation and fails fast at join when the server advertises something
// else. Lossy codecs (float16, int8, topk:<fraction>) shrink every update
// payload; topk additionally carries this client's error-feedback residual
// from round to round, so below-threshold coordinates eventually ship.
//
// Exit status distinguishes how the session ended, so scripted fleets can
// detect eviction: 0 after a clean server shutdown, 3 when the connection
// was severed without a shutdown message — the server either removed this
// client (crash-class drop) or died itself; the wire cannot distinguish
// the two, so status 3 means "do not blindly rejoin, inspect the server
// first" — and 1 for local errors.
//
// Usage (one process per client):
//
//	fedclient -addr 127.0.0.1:7070 -id 0 -clients 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/experiments"
	"fedfteds/internal/federation"
)

// exitEvicted is the exit status after a crash-class removal by the server,
// distinct from 1 (local failure) so fleet scripts can tell them apart.
const exitEvicted = 3

// errEvicted marks a crash-class drop: the server closed this client's
// connection without a shutdown message.
var errEvicted = errors.New("evicted by server")

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "fedclient:", err)
	if errors.Is(err, errEvicted) {
		os.Exit(exitEvicted)
	}
	os.Exit(1)
}

// clientConfig is the validated flag set of one fedclient run.
type clientConfig struct {
	federation.ClientConfig
	addr        string
	timeout     time.Duration
	dialRetries int
}

// parseFlags parses and fail-fast validates the command line.
func parseFlags(args []string) (clientConfig, error) {
	var cfg clientConfig
	fs := flag.NewFlagSet("fedclient", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "server address")
	fs.IntVar(&cfg.ID, "id", 0, "this client's federation index")
	fs.IntVar(&cfg.NumClients, "clients", 2, "federation size (must match the server)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "shared federation seed (must match the server)")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "dial timeout")
	fs.IntVar(&cfg.dialRetries, "dial-retries", 0, "re-dial a refused or timed-out connection this many times with exponential backoff, so a fleet can start before its server")
	fs.StringVar(&cfg.CodecSpec, "codec", "auto", "uplink codec: auto (adopt the server's advertisement), or pin one of "+strings.Join(comm.CodecNames(), ", ")+" and fail fast on a mismatch")
	if err := fs.Parse(args); err != nil {
		return clientConfig{}, err
	}
	// An explicit codec spec is validated now so a typo fails before dialing;
	// the actual instance is negotiated against the server's Welcome.
	if cfg.CodecSpec != "auto" && cfg.CodecSpec != "" {
		if _, err := comm.ParseCodec(cfg.CodecSpec); err != nil {
			return clientConfig{}, fmt.Errorf("-codec: %w", err)
		}
	}
	if cfg.NumClients <= 0 {
		return clientConfig{}, fmt.Errorf("-clients %d must be positive", cfg.NumClients)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.NumClients {
		return clientConfig{}, fmt.Errorf("-id %d outside [0, %d)", cfg.ID, cfg.NumClients)
	}
	if cfg.timeout <= 0 {
		return clientConfig{}, fmt.Errorf("-timeout %v must be positive", cfg.timeout)
	}
	if cfg.dialRetries < 0 {
		return clientConfig{}, fmt.Errorf("-dial-retries %d is negative", cfg.dialRetries)
	}
	return cfg, nil
}

// classifyDrop distinguishes a severed connection — the server removed
// this client (the engine closes the connection on a crash-class failure)
// or the server itself went down; the two are indistinguishable on the
// wire — from other errors. The message is actionable: it names the round,
// points at the server log, and says how to recover.
func classifyDrop(round int, id int, err error) error {
	if !isConnectionDrop(err) {
		return err
	}
	return fmt.Errorf("%w during round %d: the connection was severed without a shutdown message — "+
		"either this client was evicted (crash-class drop: a previous update failed or violated the "+
		"protocol) or the server went down; this client cannot rejoin the running federation: "+
		"check the server log for \"client %d\" to find the offending round (no mention means the "+
		"server died), then restart the process for the next federation (%v)",
		errEvicted, round, id, err)
}

// isConnectionDrop reports whether err is the transport-level signature of
// a closed peer connection: EOF on the TCP framing, a reset/closed socket,
// or a mid-frame desynchronization whose cause was one of those (the
// server vanishing while a frame was in flight).
func isConnectionDrop(err error) bool {
	var de *comm.DesyncError
	if errors.As(err, &de) {
		return isConnectionDrop(de.Cause)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	// A timeout-class network error is a deadline, not a severed peer —
	// mirror the engine's straggler/crash boundary.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	var op *net.OpError
	return errors.As(err, &op)
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	// Rebuild the shared world deterministically: same seed ⇒ same domains,
	// same partition, same pretrained model as the server.
	world, err := experiments.NewWorld(cfg.Seed, cfg.NumClients)
	if err != nil {
		return err
	}
	conn, err := comm.DialTCPRetry(cfg.addr, cfg.timeout, cfg.dialRetries)
	if err != nil {
		return err
	}
	client, err := federation.Join(conn, cfg.ClientConfig, world.Global, world.Clients[cfg.ID])
	if err != nil {
		return err
	}
	// pending is the round this client is waiting for or answering when the
	// session ends, which is what an eviction message has to name.
	pending := 1
	err = client.Run(func(rs comm.RoundStart) error {
		pending = rs.Round
		return nil
	}, func(u comm.ClientUpdate) {
		pending = u.Round + 1
		log.Printf("round %d: trained on %d selected samples (loss %.3f, mean entropy %.3f, tier groups %v)",
			u.Round, u.NumSelected, u.TrainLoss, u.MeanEntropy, u.Groups)
	})
	return classifyDrop(pending, cfg.ID, err)
}
