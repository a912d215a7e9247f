// Command fedserver runs a real distributed FedFT-EDS server over TCP: it
// waits for the expected number of fedclient processes to register, then
// drives the configured number of communication rounds through the one
// fault-tolerant round engine (comm.RoundEngine), streaming each client's
// update into the selected-size-weighted aggregate as it arrives, and
// evaluates the global model after every round. -cohort, -quorum,
// -round-deadline and -buffer are four answers to one question — which of the
// updates a round dispatched get folded — and the flags below set them.
//
// The engine makes the federation survive real-world client behavior: a
// crashed client is dropped and the round completes as long as -quorum of
// the round's clients report, and a hung client is cut off at
// -round-deadline, which bounds one dispatch to one client in every mode,
// instead of blocking the server forever (it is dispatched again at the next
// round).
//
// With -cohort K the server additionally schedules: each round only K of
// the live clients are contacted (policy chosen by -sched — uniform, size,
// entropy, powerd, or avail:<inner>; the same names fedsim accepts), the
// rest idle on their open connections until a later cohort includes them.
// The entropy policy closes a feedback loop over the wire: clients report
// their mean EDS entropy with every update, and the scheduler exploits the
// most uncertain clients with ε-greedy exploration.
//
// With -strategy the server swaps the federated-optimization strategy: how
// streamed updates are weighted and how their weighted average moves the
// global model — fedavg (overwrite, the default), fedprox (plus the clients'
// proximal term), fedavgm (server momentum), fedadam or fedyogi (adaptive
// server optimizers), with parameters inline ("fedadam:lr=0.05,beta1=0.9").
//
// With -tiers (optionally -tier-dist "low:1,mid:2,full:1") the federation is
// heterogeneous: every client belongs to a device-capability tier derived
// deterministically from the distribution and the shared seed, trains only
// the layer groups its tier can afford, and ships only those groups' tensors
// (masked layers cost zero wire bytes). The server aggregates per layer —
// each group is averaged over exactly the clients that covered it — and the
// "tier" scheduling policy keeps cohorts proportionally balanced across tiers.
//
// -quorum accepts either a fraction of the round's clients in (0, 1] or,
// when given a value above 1, an absolute number of updates; an absolute
// quorum larger than the clients a round can contact (-cohort, or -clients)
// is rejected at startup, since no round could ever succeed.
//
// With -relays R the federation is hierarchical: R fedrelay processes join
// in place of leaf clients, each folding its own region's updates into one
// weighted average per round and answering like a client, and the server
// folds region averages through the same strategy machinery — the flat
// federation's weighted average is reproduced exactly because every region
// reports its leaves' summed selected count. A crashed relay may re-register
// and rejoins at the next round boundary.
//
// With -codec the server negotiates a lossy uplink codec at the handshake
// (float16, int8, or topk:<fraction> sparsification with client-side error
// feedback): the Welcome advertises it, every client encodes its update
// under it, and the server decodes against the round's broadcast state
// before folding. The default identity codec advertises nothing and keeps
// every frame byte-identical to pre-codec servers. topk needs the broadcast
// reference on both sides and therefore cannot combine with -buffer (a
// buffered client may encode against a model version the server has already
// replaced).
//
// With -buffer M a round stops awaiting everything it dispatched (buffered
// asynchronous, FedBuff-style aggregation): it closes as soon as M updates
// were folded, the clients still training keep their dispatch and fold in a
// later round, each update discounted by the -staleness weigher (default
// invsqrt, λ(s) = 1/sqrt(1+s)) of the versions the model advanced meanwhile
// and discarded when staler than -max-staleness. -rounds then counts
// aggregations, and a round fails when what is still in flight can no longer
// fill the buffer. -buffer equal to the peers a round contacts (-clients, or
// -relays) with -staleness identity reproduces the synchronous server exactly.
// -buffer composes with -tiers, whose masked updates are weighed by staleness
// like any other, and with -relays, where M counts region updates and a
// region is one more peer that may answer late. It still refuses -cohort, the
// reference codecs (int8, topk) and -quorum.
//
// Clients regenerate their local partitions deterministically from the
// shared -seed and -clients, so server and clients agree on data without
// moving it — the whole point of federated learning. The rest of the run is
// the server's: every RoundStart carries the client recipe (-epochs,
// -fraction, -temperature, the learning rate and momentum, FedProx's μ, the
// tier distribution), so a fedclient takes no training flags.
//
// Usage:
//
//	fedserver -addr 127.0.0.1:7070 -clients 4 -rounds 10 -fraction 0.5 \
//	          -round-deadline 2m -quorum 0.6 -cohort 2 -sched entropy \
//	          -strategy fedadam:lr=0.05 -tiers -tier-dist low:1,mid:2,full:1
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"fedfteds/internal/comm"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/federation"
	"fedfteds/internal/profile"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}
}

// serverConfig is the validated flag set of one fedserver run: the
// federation it serves plus where it listens and the raw specs the flags
// carried.
type serverConfig struct {
	federation.Config
	addr          string
	stratSpec     string
	tiers         bool
	tierDistSpec  string
	temperature   float64
	stalenessSpec string
	codecSpec     string
	cpuProfile    string
	memProfile    string
}

// parseFlags parses and fail-fast validates the command line: bad -quorum,
// -round-deadline, -cohort or -sched values are rejected here, before any
// client has a chance to join a doomed federation. The client recipe not
// set by a flag is federation.DefaultRecipe's.
func parseFlags(args []string) (serverConfig, error) {
	cfg := serverConfig{Config: federation.Config{Run: federation.DefaultRecipe()}}
	fs := flag.NewFlagSet("fedserver", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "listen address")
	fs.IntVar(&cfg.NumClients, "clients", 2, "number of clients to wait for")
	fs.IntVar(&cfg.Run.Rounds, "rounds", 10, "communication rounds")
	fs.Float64Var(&cfg.Run.SelectFraction, "fraction", 0.5, "selection fraction P_ds")
	fs.IntVar(&cfg.Run.LocalEpochs, "epochs", 5, "local epochs E")
	fs.Float64Var(&cfg.temperature, "temperature", 0.1, "hardened-softmax temperature ρ of the clients' entropy-based selection")
	fs.Int64Var(&cfg.Run.Seed, "seed", 1, "shared federation seed")
	fs.DurationVar(&cfg.RoundDeadline, "round-deadline", 0, "bound on one dispatch to one peer, send and reply; a slower peer is timed out of the round and dispatched again at the next (0 = wait forever)")
	fs.Float64Var(&cfg.Quorum, "quorum", 1, "updates a round needs to succeed: a fraction of the round's clients in (0, 1], or an absolute count when above 1")
	fs.IntVar(&cfg.Run.CohortSize, "cohort", 0, "clients scheduled per round, 0 = the whole federation")
	fs.StringVar(&cfg.SchedName, "sched", "uniform", "cohort scheduling policy: uniform, size, entropy, powerd, tier, avail:<inner>")
	fs.StringVar(&cfg.Run.CheckpointDir, "ckpt-dir", "", "snapshot the federation after every round and warm-start from this directory's latest checkpoint")
	fs.StringVar(&cfg.stratSpec, "strategy", "fedavg", "federated-optimization strategy: fedavg, fedprox, fedavgm, fedadam, fedyogi, with optional parameters (fedadam:lr=0.05,beta1=0.9)")
	fs.BoolVar(&cfg.tiers, "tiers", false, "device-tier mode: clients train and ship only the layer groups their capability tier affords, aggregated per layer")
	fs.StringVar(&cfg.tierDistSpec, "tier-dist", "", "tier distribution \"tier:weight,...\" over "+strings.Join(device.TierNames(), "/")+" (implies -tiers; default "+defaultTierSpec+")")
	fs.IntVar(&cfg.Relays, "relays", 0, "hierarchical mode: this many fedrelay regions join instead of leaf clients (-clients still names the total leaf count the regions cover)")
	fs.IntVar(&cfg.Async.Buffer, "buffer", 0, "buffered-async (FedBuff) mode: aggregate as soon as this many updates arrive instead of running synchronous rounds")
	fs.IntVar(&cfg.Async.MaxStaleness, "max-staleness", -1, "async mode: discard updates staler than this many model versions (negative keeps all; needs -buffer)")
	fs.StringVar(&cfg.stalenessSpec, "staleness", "", "async mode: staleness discount "+strings.Join(strategy.StalenessNames(), "/")+" with optional parameters, e.g. poly:alpha=1 (default invsqrt; needs -buffer)")
	fs.StringVar(&cfg.codecSpec, "codec", "identity", "uplink codec advertised to clients: "+strings.Join(comm.CodecNames(), ", ")+" (identity ships legacy bit-identical frames)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return serverConfig{}, err
	}
	strat, err := strategy.Parse(cfg.stratSpec)
	if err != nil {
		return serverConfig{}, err
	}
	cfg.Run.Strategy = strat
	if cfg.temperature <= 0 {
		return serverConfig{}, fmt.Errorf("-temperature %v must be positive", cfg.temperature)
	}
	cfg.Run.Selector = selection.Entropy{Temperature: cfg.temperature}
	if cfg.Run.CheckpointDir != "" {
		// Fail fast on an unusable checkpoint directory: a server that can
		// train but not checkpoint would lose the federation it promised to
		// preserve.
		if err := os.MkdirAll(cfg.Run.CheckpointDir, 0o755); err != nil {
			return serverConfig{}, fmt.Errorf("-ckpt-dir: %w", err)
		}
	}
	if cfg.Quorum <= 0 {
		return serverConfig{}, fmt.Errorf("-quorum %v must be positive", cfg.Quorum)
	}
	if cfg.RoundDeadline < 0 {
		return serverConfig{}, fmt.Errorf("-round-deadline %v is negative", cfg.RoundDeadline)
	}
	if cfg.NumClients <= 0 {
		return serverConfig{}, fmt.Errorf("-clients %d must be positive", cfg.NumClients)
	}
	if cfg.Run.SelectFraction <= 0 || cfg.Run.SelectFraction > 1 {
		return serverConfig{}, fmt.Errorf("-fraction %v outside (0, 1]", cfg.Run.SelectFraction)
	}
	if cfg.Run.LocalEpochs <= 0 {
		return serverConfig{}, fmt.Errorf("-epochs %d must be positive", cfg.Run.LocalEpochs)
	}
	if cfg.Run.Rounds <= 0 {
		return serverConfig{}, fmt.Errorf("-rounds %d must be positive", cfg.Run.Rounds)
	}
	if cfg.Run.CohortSize < 0 {
		return serverConfig{}, fmt.Errorf("-cohort %d is negative", cfg.Run.CohortSize)
	}
	if cfg.Run.CohortSize > cfg.NumClients {
		return serverConfig{}, fmt.Errorf("-cohort %d exceeds the federation size %d", cfg.Run.CohortSize, cfg.NumClients)
	}
	if cfg.Relays < 0 {
		return serverConfig{}, fmt.Errorf("-relays %d is negative", cfg.Relays)
	}
	if cfg.Async.Buffer < 0 {
		return serverConfig{}, fmt.Errorf("-buffer %d is negative", cfg.Async.Buffer)
	}
	// The peers a round can contact: the relay regions in hierarchical mode,
	// the clients otherwise, narrowed by -cohort below.
	peers := cfg.NumClients
	if cfg.Relays > 0 {
		if cfg.Relays > cfg.NumClients {
			return serverConfig{}, fmt.Errorf("-relays %d exceeds -clients %d: every region needs at least one leaf client",
				cfg.Relays, cfg.NumClients)
		}
		if cfg.Run.CohortSize > cfg.Relays {
			return serverConfig{}, fmt.Errorf("-cohort %d exceeds the %d relay regions a round can contact", cfg.Run.CohortSize, cfg.Relays)
		}
		peers = cfg.Relays
	}
	if cfg.Async.Buffer > 0 {
		if cfg.Async.Buffer > peers {
			return serverConfig{}, fmt.Errorf("-buffer %d exceeds the %d peers a round can contact (-relays %d, -clients %d): "+
				"each holds at most one outstanding update, so the buffer could never fill",
				cfg.Async.Buffer, peers, cfg.Relays, cfg.NumClients)
		}
		if cfg.Run.CohortSize > 0 {
			return serverConfig{}, fmt.Errorf("-cohort %d schedules synchronous rounds and cannot combine with -buffer %d: "+
				"the async engine dispatches to every idle client at each aggregation; drop -cohort or -buffer", cfg.Run.CohortSize, cfg.Async.Buffer)
		}
	}
	if cfg.Async.MaxStaleness >= 0 && cfg.Async.Buffer == 0 {
		return serverConfig{}, fmt.Errorf("-max-staleness %d needs -buffer: staleness only exists in buffered-async mode", cfg.Async.MaxStaleness)
	}
	if cfg.stalenessSpec != "" && cfg.Async.Buffer == 0 {
		return serverConfig{}, fmt.Errorf("-staleness %q needs -buffer: staleness only exists in buffered-async mode", cfg.stalenessSpec)
	}
	if cfg.Async.Buffer > 0 {
		weigher, err := strategy.ParseStaleness(cfg.stalenessSpec)
		if err != nil {
			return serverConfig{}, fmt.Errorf("-staleness: %w", err)
		}
		cfg.Async.Weigher = weigher
	}
	// The codec spec is validated here so a typo surfaces before any client
	// joins; identity (the default) stays empty and keeps the legacy wire
	// paths untouched. Reference-needing codecs (int8, topk) are refused in
	// async mode: a buffered client may encode against a model version the
	// server has already replaced, so the two sides would decode against
	// different references.
	codec, err := comm.ParseCodec(cfg.codecSpec)
	if err != nil {
		return serverConfig{}, fmt.Errorf("-codec: %w", err)
	}
	if codec.Name() != comm.CodecIdentity {
		cfg.Run.Codec = codec.Name()
	}
	if codec.NeedsReference() && cfg.Async.Buffer > 0 {
		return serverConfig{}, fmt.Errorf("-codec %s cannot combine with -buffer: the codec decodes against "+
			"the round's broadcast reference, which buffered-async clients no longer share; use float16", cfg.Run.Codec)
	}
	// A -quorum above 1 is an absolute update count. It must be an integer,
	// and it must be reachable: a quorum no round can ever meet — more
	// updates than the clients a round contacts — is rejected now, not
	// discovered as an eternal ErrQuorum at round 1.
	if cfg.Quorum > 1 {
		if cfg.Quorum != math.Trunc(cfg.Quorum) {
			return serverConfig{}, fmt.Errorf("-quorum %v: values above 1 are absolute update counts and must be integers", cfg.Quorum)
		}
		cfg.MinUpdates, cfg.Quorum = int(cfg.Quorum), 0
		roundSize := peers
		if cfg.Run.CohortSize > 0 {
			roundSize = cfg.Run.CohortSize
		}
		if cfg.MinUpdates > roundSize {
			return serverConfig{}, fmt.Errorf("-quorum %d exceeds the %d participants a round can contact "+
				"(-cohort %d, -relays %d, -clients %d): no round could ever succeed",
				cfg.MinUpdates, roundSize, cfg.Run.CohortSize, cfg.Relays, cfg.NumClients)
		}
	}
	// In async mode there is no round for a quorum to gate: admission is the
	// buffer itself. Any explicit quorum alongside -buffer is a configuration
	// contradiction, named as such.
	if cfg.Async.Buffer > 0 && (cfg.MinUpdates > 0 || cfg.Quorum != 1) {
		if cfg.MinUpdates > 0 {
			return serverConfig{}, fmt.Errorf("-quorum %d is an absolute synchronous-round update count and -buffer %d "+
				"is the async aggregation trigger: the two admission rules are mutually exclusive; drop -quorum "+
				"(async aggregates whenever -buffer updates arrive) or -buffer (synchronous rounds gate on -quorum)",
				cfg.MinUpdates, cfg.Async.Buffer)
		}
		return serverConfig{}, fmt.Errorf("-quorum %v gates synchronous rounds and cannot combine with -buffer %d: "+
			"async aggregation triggers on the buffer itself; drop -quorum or -buffer", cfg.Quorum, cfg.Async.Buffer)
	}
	// -tier-dist implies -tiers, and -tiers alone means defaultTierSpec.
	if cfg.tiers && cfg.tierDistSpec == "" {
		cfg.tierDistSpec = defaultTierSpec
	}
	if cfg.tierDistSpec != "" {
		if cfg.Run.TierDist, err = device.ParseDistribution(cfg.tierDistSpec); err != nil {
			return serverConfig{}, fmt.Errorf("-tier-dist: %w", err)
		}
	}
	cfg.tiers = cfg.Run.TierDist != nil
	// The policy name is validated even with -cohort 0, so a typo surfaces
	// now and not on the day scheduling is switched on.
	scheduler, err := sched.Parse(cfg.SchedName)
	if err != nil {
		return serverConfig{}, err
	}
	if cfg.Run.CohortSize > 0 {
		cfg.Run.Scheduler = scheduler
	}
	return cfg, nil
}

// defaultTierSpec is the tier distribution -tiers means when -tier-dist is
// not given: a paper-style mix of constrained, moderate and full devices.
const defaultTierSpec = "low:1,mid:2,full:1"

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProfiles, err := profile.Start("fedserver", cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	l, err := comm.ListenTCP(cfg.addr)
	if err != nil {
		return err
	}
	defer l.Close()
	// Build the shared world: domains, pretrained global model, test set.
	world, err := experiments.NewWorld(cfg.Run.Seed, cfg.NumClients)
	if err != nil {
		return err
	}
	_, err = federation.Serve(cfg.Config, l, world.Global, world.Test)
	return err
}
