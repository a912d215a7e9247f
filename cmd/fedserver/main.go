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
// entropy, powerd, tier, cluster:<inner> or avail:<inner>; the same names
// fedsim accepts), the rest idle on their open connections until a later
// cohort includes them.
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
// is rejected at startup, since no round could ever succeed. Every such rule
// about a run lives in federation.Config.Validate, which Serve applies to
// any caller; the flags add only rules about themselves: -temperature,
// -staleness and -max-staleness needing -buffer, a creatable -ckpt-dir, and
// the specs each flag parses.
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
	cpuProfile    string
	memProfile    string
}

// parseFlags parses the command line and fail-fast validates it with
// federation.Config.Validate, before any client has a chance to join a
// doomed federation; it keeps only the rules about flags themselves. The
// client recipe not set by a flag is federation.DefaultRecipe's.
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
	fs.StringVar(&cfg.SchedName, "sched", "uniform", "cohort scheduling policy: "+strings.Join(sched.PolicyNames(), ", "))
	fs.StringVar(&cfg.Run.CheckpointDir, "ckpt-dir", "", "snapshot the federation after every round and warm-start from this directory's latest checkpoint")
	fs.StringVar(&cfg.stratSpec, "strategy", "fedavg", "federated-optimization strategy: fedavg, fedprox, fedavgm, fedadam, fedyogi, with optional parameters (fedadam:lr=0.05,beta1=0.9)")
	fs.BoolVar(&cfg.tiers, "tiers", false, "device-tier mode: clients train and ship only the layer groups their capability tier affords, aggregated per layer")
	fs.StringVar(&cfg.tierDistSpec, "tier-dist", "", "tier distribution \"tier:weight,...\" over "+strings.Join(device.TierNames(), "/")+" (implies -tiers; default "+defaultTierSpec+")")
	fs.IntVar(&cfg.Relays, "relays", 0, "hierarchical mode: this many fedrelay regions join instead of leaf clients (-clients still names the total leaf count the regions cover)")
	fs.IntVar(&cfg.Run.Async.Buffer, "buffer", 0, "buffered-async (FedBuff) mode: aggregate as soon as this many updates arrive instead of running synchronous rounds")
	fs.IntVar(&cfg.Run.Async.MaxStaleness, "max-staleness", -1, "async mode: discard updates staler than this many model versions (negative keeps all; needs -buffer)")
	fs.StringVar(&cfg.stalenessSpec, "staleness", "", "async mode: staleness discount "+strings.Join(strategy.StalenessNames(), "/")+" with optional parameters, e.g. poly:alpha=1 (default invsqrt; needs -buffer)")
	fs.StringVar(&cfg.Run.Codec, "codec", comm.CodecIdentity, "uplink codec advertised to clients: "+strings.Join(comm.CodecNames(), ", ")+" (identity is advertised as no codec at all, so its frames are those of servers that predate codecs)")
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
	if cfg.Run.Async.MaxStaleness >= 0 && cfg.Run.Async.Buffer == 0 {
		return serverConfig{}, fmt.Errorf("-max-staleness %d needs -buffer: staleness only exists in buffered-async mode", cfg.Run.Async.MaxStaleness)
	}
	if cfg.stalenessSpec != "" && cfg.Run.Async.Buffer == 0 {
		return serverConfig{}, fmt.Errorf("-staleness %q needs -buffer: staleness only exists in buffered-async mode", cfg.stalenessSpec)
	}
	if cfg.Run.Async.Buffer > 0 {
		if cfg.Run.Async.Weigher, err = strategy.ParseStaleness(cfg.stalenessSpec); err != nil {
			return serverConfig{}, fmt.Errorf("-staleness: %w", err)
		}
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
	if err := cfg.Validate(); err != nil {
		return serverConfig{}, err
	}
	if cfg.Run.CheckpointDir != "" {
		// Fail fast on an unusable checkpoint directory: a server that can
		// train but not checkpoint would lose the federation it promised to
		// preserve.
		if err := os.MkdirAll(cfg.Run.CheckpointDir, 0o755); err != nil {
			return serverConfig{}, fmt.Errorf("-ckpt-dir: %w", err)
		}
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
