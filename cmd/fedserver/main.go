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
// global model — fedavg (overwrite, the default), fedavgm (server
// momentum), fedadam or fedyogi (adaptive server optimizers), with
// parameters inline ("fedadam:lr=0.05,beta1=0.9"). Server optimizers are
// server-only: nothing changes on the wire, and unmodified fedclients
// participate in any strategy.
//
// With -tiers (optionally -tier-dist "low:1,mid:2,full:1") the federation is
// heterogeneous: every client belongs to a device-capability tier derived
// deterministically from the shared seed, trains only the layer groups its
// tier can afford, and ships only those groups' tensors (masked layers cost
// zero wire bytes). The server aggregates per layer — each group is averaged
// over exactly the clients that covered it — and the "tier" scheduling
// policy keeps cohorts proportionally balanced across tiers.
//
// -quorum accepts either a fraction of the round's clients in (0, 1] or,
// when given a value above 1, an absolute number of updates; an absolute
// quorum larger than the clients a round can contact (-cohort, or -clients)
// is rejected at startup, since no round could ever succeed.
//
// With -relays R the federation is hierarchical: R fedrelay processes join
// in place of leaf clients, each folding its own region's updates into one
// weighted delta per round, and the server composes region deltas through
// the same strategy machinery — the flat federation's weighted average is
// reproduced exactly because every region reports its weight mass. A crashed
// relay may re-register and rejoins at the next round boundary.
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
// fill the buffer. -buffer equal to -clients with -staleness identity
// reproduces the synchronous server exactly.
//
// Clients regenerate their local partitions deterministically from the
// shared -seed, so server and clients agree on data without moving it —
// the whole point of federated learning.
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
	"runtime"
	"runtime/pprof"
	"strings"

	"fedfteds/internal/comm"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/federation"
	"fedfteds/internal/sched"
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
	stalenessSpec string
	codecSpec     string
	cpuProfile    string
	memProfile    string
}

// parseFlags parses and fail-fast validates the command line: bad -quorum,
// -round-deadline, -cohort or -sched values are rejected here, before any
// client has a chance to join a doomed federation.
func parseFlags(args []string) (serverConfig, error) {
	var cfg serverConfig
	fs := flag.NewFlagSet("fedserver", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "listen address")
	fs.IntVar(&cfg.NumClients, "clients", 2, "number of clients to wait for")
	fs.IntVar(&cfg.Rounds, "rounds", 10, "communication rounds")
	fs.Float64Var(&cfg.Fraction, "fraction", 0.5, "selection fraction P_ds")
	fs.IntVar(&cfg.Epochs, "epochs", 5, "local epochs E")
	fs.Int64Var(&cfg.Seed, "seed", 1, "shared federation seed")
	fs.DurationVar(&cfg.RoundDeadline, "round-deadline", 0, "bound on one dispatch to one peer, send and reply; a slower peer is timed out of the round and dispatched again at the next (0 = wait forever)")
	fs.Float64Var(&cfg.Quorum, "quorum", 1, "updates a round needs to succeed: a fraction of the round's clients in (0, 1], or an absolute count when above 1")
	fs.IntVar(&cfg.Cohort, "cohort", 0, "clients scheduled per round, 0 = the whole federation")
	fs.StringVar(&cfg.SchedName, "sched", "uniform", "cohort scheduling policy: uniform, size, entropy, powerd, tier, avail:<inner>")
	fs.StringVar(&cfg.CkptDir, "ckpt-dir", "", "snapshot the federation after every round and warm-start from this directory's latest checkpoint")
	fs.StringVar(&cfg.stratSpec, "strategy", "fedavg", "federated-optimization strategy: fedavg, fedprox, fedavgm, fedadam, fedyogi, with optional parameters (fedadam:lr=0.05,beta1=0.9)")
	fs.BoolVar(&cfg.tiers, "tiers", false, "device-tier mode: clients train and ship only the layer groups their capability tier affords, aggregated per layer")
	fs.StringVar(&cfg.tierDistSpec, "tier-dist", "", "tier distribution \"tier:weight,...\" over "+strings.Join(device.TierNames(), "/")+" (implies -tiers; default "+federation.DefaultTierSpec+")")
	fs.IntVar(&cfg.Relays, "relays", 0, "hierarchical mode: this many fedrelay regions join instead of leaf clients (-clients still names the total leaf count the regions cover)")
	fs.IntVar(&cfg.Buffer, "buffer", 0, "buffered-async (FedBuff) mode: aggregate as soon as this many updates arrive instead of running synchronous rounds")
	fs.IntVar(&cfg.MaxStaleness, "max-staleness", -1, "async mode: discard updates staler than this many model versions (negative keeps all; needs -buffer)")
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
	cfg.Strat = strat
	if cfg.CkptDir != "" {
		// Fail fast on an unusable checkpoint directory: a server that can
		// train but not checkpoint would lose the federation it promised to
		// preserve.
		if err := os.MkdirAll(cfg.CkptDir, 0o755); err != nil {
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
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return serverConfig{}, fmt.Errorf("-fraction %v outside (0, 1]", cfg.Fraction)
	}
	if cfg.Epochs <= 0 {
		return serverConfig{}, fmt.Errorf("-epochs %d must be positive", cfg.Epochs)
	}
	if cfg.Rounds <= 0 {
		return serverConfig{}, fmt.Errorf("-rounds %d must be positive", cfg.Rounds)
	}
	if cfg.Cohort < 0 {
		return serverConfig{}, fmt.Errorf("-cohort %d is negative", cfg.Cohort)
	}
	if cfg.Cohort > cfg.NumClients {
		return serverConfig{}, fmt.Errorf("-cohort %d exceeds the federation size %d", cfg.Cohort, cfg.NumClients)
	}
	if cfg.Relays < 0 {
		return serverConfig{}, fmt.Errorf("-relays %d is negative", cfg.Relays)
	}
	if cfg.Buffer < 0 {
		return serverConfig{}, fmt.Errorf("-buffer %d is negative", cfg.Buffer)
	}
	if cfg.Relays > 0 && cfg.Buffer > 0 {
		return serverConfig{}, fmt.Errorf("-relays %d and -buffer %d are mutually exclusive: "+
			"a relay tree runs synchronous region rounds; run the buffered-async server flat", cfg.Relays, cfg.Buffer)
	}
	if cfg.Relays > 0 {
		if cfg.Relays > cfg.NumClients {
			return serverConfig{}, fmt.Errorf("-relays %d exceeds -clients %d: every region needs at least one leaf client",
				cfg.Relays, cfg.NumClients)
		}
		if cfg.Cohort > cfg.Relays {
			return serverConfig{}, fmt.Errorf("-cohort %d exceeds the %d relay regions a round can contact", cfg.Cohort, cfg.Relays)
		}
	}
	if cfg.Buffer > 0 {
		if cfg.Buffer > cfg.NumClients {
			return serverConfig{}, fmt.Errorf("-buffer %d exceeds -clients %d: each client holds at most one "+
				"outstanding update, so the buffer could never fill", cfg.Buffer, cfg.NumClients)
		}
		if cfg.Cohort > 0 {
			return serverConfig{}, fmt.Errorf("-cohort %d schedules synchronous rounds and cannot combine with -buffer %d: "+
				"the async engine dispatches to every idle client at each aggregation; drop -cohort or -buffer", cfg.Cohort, cfg.Buffer)
		}
		if cfg.tiers || cfg.tierDistSpec != "" {
			return serverConfig{}, fmt.Errorf("-tiers cannot combine with -buffer: masked per-layer aggregation assumes synchronous rounds")
		}
	}
	if cfg.MaxStaleness >= 0 && cfg.Buffer == 0 {
		return serverConfig{}, fmt.Errorf("-max-staleness %d needs -buffer: staleness only exists in buffered-async mode", cfg.MaxStaleness)
	}
	if cfg.stalenessSpec != "" && cfg.Buffer == 0 {
		return serverConfig{}, fmt.Errorf("-staleness %q needs -buffer: staleness only exists in buffered-async mode", cfg.stalenessSpec)
	}
	if cfg.Buffer > 0 {
		weigher, err := strategy.ParseStaleness(cfg.stalenessSpec)
		if err != nil {
			return serverConfig{}, fmt.Errorf("-staleness: %w", err)
		}
		cfg.Weigher = weigher
	}
	// The codec spec is validated here so a typo surfaces before any client
	// joins; identity (the default) stays nil and keeps the legacy wire
	// paths untouched. Reference-needing codecs (int8, topk) are refused in
	// async mode: a buffered client may encode against a model version the
	// server has already replaced, so the two sides would decode against
	// different references.
	codec, err := comm.ParseCodec(cfg.codecSpec)
	if err != nil {
		return serverConfig{}, fmt.Errorf("-codec: %w", err)
	}
	if codec.Name() != comm.CodecIdentity {
		cfg.Codec, cfg.CodecName = codec, codec.Name()
	}
	if cfg.Codec != nil && cfg.Codec.NeedsReference() && cfg.Buffer > 0 {
		return serverConfig{}, fmt.Errorf("-codec %s cannot combine with -buffer: the codec decodes against "+
			"the round's broadcast reference, which buffered-async clients no longer share; use float16", cfg.CodecName)
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
		roundSize := cfg.NumClients
		if cfg.Relays > 0 {
			roundSize = cfg.Relays
		}
		if cfg.Cohort > 0 {
			roundSize = cfg.Cohort
		}
		if cfg.MinUpdates > roundSize {
			return serverConfig{}, fmt.Errorf("-quorum %d exceeds the %d participants a round can contact "+
				"(-cohort %d, -relays %d, -clients %d): no round could ever succeed",
				cfg.MinUpdates, roundSize, cfg.Cohort, cfg.Relays, cfg.NumClients)
		}
	}
	// In async mode there is no round for a quorum to gate: admission is the
	// buffer itself. Any explicit quorum alongside -buffer is a configuration
	// contradiction, named as such.
	if cfg.Buffer > 0 && (cfg.MinUpdates > 0 || cfg.Quorum != 1) {
		if cfg.MinUpdates > 0 {
			return serverConfig{}, fmt.Errorf("-quorum %d is an absolute synchronous-round update count and -buffer %d "+
				"is the async aggregation trigger: the two admission rules are mutually exclusive; drop -quorum "+
				"(async aggregates whenever -buffer updates arrive) or -buffer (synchronous rounds gate on -quorum)",
				cfg.MinUpdates, cfg.Buffer)
		}
		return serverConfig{}, fmt.Errorf("-quorum %v gates synchronous rounds and cannot combine with -buffer %d: "+
			"async aggregation triggers on the buffer itself; drop -quorum or -buffer", cfg.Quorum, cfg.Buffer)
	}
	if cfg.TierDist, err = federation.TierFlags(cfg.tiers, cfg.tierDistSpec); err != nil {
		return serverConfig{}, err
	}
	cfg.tiers = cfg.TierDist != nil
	// The policy name is validated even with -cohort 0, so a typo surfaces
	// now and not on the day scheduling is switched on.
	scheduler, err := sched.Parse(cfg.SchedName)
	if err != nil {
		return serverConfig{}, err
	}
	if cfg.Cohort > 0 {
		cfg.Scheduler = scheduler
	}
	return cfg, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	// Profiling mirrors fedsim: CPU profile over the whole serve, heap
	// profile of the steady state at exit.
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fedserver: memprofile:", err)
			}
			f.Close()
		}()
	}
	l, err := comm.ListenTCP(cfg.addr)
	if err != nil {
		return err
	}
	defer l.Close()
	// Build the shared world: domains, pretrained global model, test set.
	world, err := experiments.NewWorld(cfg.Seed, cfg.NumClients)
	if err != nil {
		return err
	}
	_, err = federation.Serve(cfg.Config, l, world.Global, world.Test)
	return err
}
