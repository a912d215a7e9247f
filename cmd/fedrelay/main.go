// Command fedrelay runs the mid-tier aggregator of a hierarchical
// federation: it accepts a region's fedclient leaves on -listen with the
// same session machinery fedserver uses, joins the root fedserver at -addr
// as one relay (declaring the region's summed dataset size), and then, for
// every round the root starts, rebroadcasts it — client recipe and all — to
// the region, folds the leaf updates into a single weighted average, and
// answers the root with it as one ClientUpdate: to the root a relay is a
// client whose selected-sample count is its region's. The root composes
// region averages through its strategy exactly as it composes client
// updates, so stacking relays between clients and server changes where
// aggregation happens — not what it computes.
//
// The relay's leaf side exposes the same fault-tolerance knobs as fedserver:
// -round-deadline drops hung leaves at expiry, -quorum lets a region's round
// succeed on partial participation. Leaves connect to the relay exactly as
// they would to a server — an unmodified fedclient works as a leaf.
//
// -relay-id is the relay's identity in the root's ID space; give every relay
// a distinct one, as you would give clients distinct -id values. With
// -dial-retries the relay survives starting before the root is listening.
//
// -codec sets the uplink codec advertised to this region's leaves (identity,
// float16, int8, topk:<fraction>); the upstream hop independently adopts
// whatever codec the root advertises, each hop re-encoding — so a tree can
// compress the many leaf links aggressively and the single root link
// differently, or not at all.
//
// Usage:
//
//	fedrelay -addr 127.0.0.1:7070 -listen 127.0.0.1:7171 \
//	         -relay-id 0 -leaves 4 -rounds 10 -quorum 0.5 -dial-retries 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/federation"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedrelay:", err)
		os.Exit(1)
	}
}

// relayConfig is the validated flag set of one fedrelay run: the relay it
// runs plus the addresses and dialing it runs it over.
type relayConfig struct {
	federation.RelayConfig
	addr        string
	listen      string
	timeout     time.Duration
	dialRetries int
}

// parseFlags parses and fail-fast validates the command line: the relay's
// own checks (RelayConfig.Validate), then the dialing.
func parseFlags(args []string) (relayConfig, error) {
	var cfg relayConfig
	fs := flag.NewFlagSet("fedrelay", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "root fedserver address")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7171", "listen address for the region's leaf clients")
	fs.IntVar(&cfg.RelayID, "relay-id", 0, "this relay's identity in the root's ID space")
	fs.IntVar(&cfg.Leaves, "leaves", 2, "leaf clients to wait for before joining the root")
	fs.IntVar(&cfg.Rounds, "rounds", 10, "communication rounds, must match the root's -rounds")
	fs.DurationVar(&cfg.Engine.RoundDeadline, "round-deadline", 0, "bound on one dispatch to one peer, send and reply; a slower peer is timed out of the round and dispatched again at the next (0 = wait forever)")
	fs.Float64Var(&cfg.Engine.Quorum, "quorum", 1, "leaf updates a region round needs to succeed, as a fraction of the round's leaves in (0, 1]")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "root dial timeout")
	fs.IntVar(&cfg.dialRetries, "dial-retries", 0, "re-dial a refused or timed-out root connection this many times with exponential backoff, so the tree can start in any order")
	fs.StringVar(&cfg.LeafCodec, "codec", "identity", "uplink codec advertised to this region's leaves: "+strings.Join(comm.CodecNames(), ", ")+" (the upstream hop adopts the root's advertisement instead)")
	if err := fs.Parse(args); err != nil {
		return relayConfig{}, err
	}
	if err := cfg.RelayConfig.Validate(); err != nil {
		return relayConfig{}, err
	}
	if cfg.dialRetries < 0 {
		return relayConfig{}, fmt.Errorf("-dial-retries %d is negative", cfg.dialRetries)
	}
	return cfg, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	// Listen for leaves before dialing the root, so leaf processes started in
	// parallel have somewhere to retry against immediately.
	l, err := comm.ListenTCP(cfg.listen)
	if err != nil {
		return err
	}
	defer l.Close()
	root, err := comm.DialTCPRetry(cfg.addr, cfg.timeout, cfg.dialRetries)
	if err != nil {
		return err
	}
	return federation.Relay(root, l, cfg.RelayConfig)
}
