// Command fedserver runs a real distributed FedFT-EDS server over TCP: it
// waits for the expected number of fedclient processes to register, then
// drives the configured number of communication rounds through the
// fault-tolerant round engine, streaming each client's update into the
// selected-size-weighted aggregate as it arrives, and evaluates the global
// model after every round.
//
// The engine makes the federation survive real-world client behavior: a
// crashed client is dropped and the round completes as long as -quorum of
// the round's clients report, and a hung client is cut off at
// -round-deadline instead of blocking the server forever (it may rejoin at
// the next round).
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
// With -buffer M the server switches from synchronous rounds to buffered
// asynchronous (FedBuff-style) aggregation: clients train continuously
// against the newest model they have seen, and the server aggregates as soon
// as M version-tagged updates arrive, discounting each by the -staleness
// weigher (default invsqrt, λ(s) = 1/sqrt(1+s)) and discarding updates
// staler than -max-staleness. -rounds then counts aggregations, and
// -round-deadline bounds each aggregation's wait. -buffer equal to -clients
// with -staleness identity reproduces the synchronous server exactly.
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
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedserver:", err)
		os.Exit(1)
	}
}

// defaultTierSpec is the tier distribution -tiers uses when -tier-dist is
// not given: a paper-style mix of constrained, moderate and full devices.
const defaultTierSpec = "low:1,mid:2,full:1"

// serverConfig is the validated flag set of one fedserver run.
type serverConfig struct {
	addr          string
	numClients    int
	rounds        int
	fraction      float64
	epochs        int
	seed          int64
	roundDeadline time.Duration
	quorum        float64
	minUpdates    int // absolute quorum (-quorum above 1); 0 in fractional mode
	cohort        int
	scheduler     sched.Scheduler // nil when -cohort is 0 (full pool)
	schedName     string
	ckptDir       string
	strat         strategy.Strategy
	stratSpec     string
	tiers         bool
	tierDistSpec  string
	tierDist      *device.Distribution // nil when untiered
	relays        int                  // hierarchical mode: regions to accept; 0 = flat
	buffer        int                  // async mode: aggregation buffer M; 0 = synchronous
	maxStaleness  int
	stalenessSpec string
	weigher       strategy.StalenessWeigher // nil outside async mode
	codecSpec     string
	codecName     string     // canonical codec spec; "" for identity (legacy frames)
	codec         comm.Codec // decode instance; nil for identity
	cpuProfile    string
	memProfile    string
}

// tierSpec is the canonical tier-distribution rendering checkpoints record
// (empty when untiered).
func (c serverConfig) tierSpec() string {
	if c.tierDist == nil {
		return ""
	}
	return c.tierDist.String()
}

// taggedStrategy returns the strategy as checkpoints see it: nil for the
// default fedavg composition (whose checkpoints stay interchangeable with
// pre-strategy servers), the configured strategy otherwise.
func (c serverConfig) taggedStrategy() strategy.Strategy {
	if strategy.IsDefault(c.strat) {
		return nil
	}
	return c.strat
}

// parseFlags parses and fail-fast validates the command line: bad -quorum,
// -round-deadline, -cohort or -sched values are rejected here, before any
// client has a chance to join a doomed federation.
func parseFlags(args []string) (serverConfig, error) {
	var cfg serverConfig
	fs := flag.NewFlagSet("fedserver", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "listen address")
	fs.IntVar(&cfg.numClients, "clients", 2, "number of clients to wait for")
	fs.IntVar(&cfg.rounds, "rounds", 10, "communication rounds")
	fs.Float64Var(&cfg.fraction, "fraction", 0.5, "selection fraction P_ds")
	fs.IntVar(&cfg.epochs, "epochs", 5, "local epochs E")
	fs.Int64Var(&cfg.seed, "seed", 1, "shared federation seed")
	fs.DurationVar(&cfg.roundDeadline, "round-deadline", 0, "per-round deadline; hung clients are dropped at expiry (0 = wait forever)")
	fs.Float64Var(&cfg.quorum, "quorum", 1, "updates a round needs to succeed: a fraction of the round's clients in (0, 1], or an absolute count when above 1")
	fs.IntVar(&cfg.cohort, "cohort", 0, "clients scheduled per round, 0 = the whole federation")
	fs.StringVar(&cfg.schedName, "sched", "uniform", "cohort scheduling policy: uniform, size, entropy, powerd, tier, avail:<inner>")
	fs.StringVar(&cfg.ckptDir, "ckpt-dir", "", "snapshot the federation after every round and warm-start from this directory's latest checkpoint")
	fs.StringVar(&cfg.stratSpec, "strategy", "fedavg", "federated-optimization strategy: fedavg, fedprox, fedavgm, fedadam, fedyogi, with optional parameters (fedadam:lr=0.05,beta1=0.9)")
	fs.BoolVar(&cfg.tiers, "tiers", false, "device-tier mode: clients train and ship only the layer groups their capability tier affords, aggregated per layer")
	fs.StringVar(&cfg.tierDistSpec, "tier-dist", "", "tier distribution \"tier:weight,...\" over "+strings.Join(device.TierNames(), "/")+" (implies -tiers; default "+defaultTierSpec+")")
	fs.IntVar(&cfg.relays, "relays", 0, "hierarchical mode: this many fedrelay regions join instead of leaf clients (-clients still names the total leaf count the regions cover)")
	fs.IntVar(&cfg.buffer, "buffer", 0, "buffered-async (FedBuff) mode: aggregate as soon as this many updates arrive instead of running synchronous rounds")
	fs.IntVar(&cfg.maxStaleness, "max-staleness", -1, "async mode: discard updates staler than this many model versions (negative keeps all; needs -buffer)")
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
	cfg.strat = strat
	if cfg.ckptDir != "" {
		// Fail fast on an unusable checkpoint directory: a server that can
		// train but not checkpoint would lose the federation it promised to
		// preserve.
		if err := os.MkdirAll(cfg.ckptDir, 0o755); err != nil {
			return serverConfig{}, fmt.Errorf("-ckpt-dir: %w", err)
		}
	}
	if cfg.quorum <= 0 {
		return serverConfig{}, fmt.Errorf("-quorum %v must be positive", cfg.quorum)
	}
	if cfg.roundDeadline < 0 {
		return serverConfig{}, fmt.Errorf("-round-deadline %v is negative", cfg.roundDeadline)
	}
	if cfg.numClients <= 0 {
		return serverConfig{}, fmt.Errorf("-clients %d must be positive", cfg.numClients)
	}
	if cfg.fraction <= 0 || cfg.fraction > 1 {
		return serverConfig{}, fmt.Errorf("-fraction %v outside (0, 1]", cfg.fraction)
	}
	if cfg.epochs <= 0 {
		return serverConfig{}, fmt.Errorf("-epochs %d must be positive", cfg.epochs)
	}
	if cfg.rounds <= 0 {
		return serverConfig{}, fmt.Errorf("-rounds %d must be positive", cfg.rounds)
	}
	if cfg.cohort < 0 {
		return serverConfig{}, fmt.Errorf("-cohort %d is negative", cfg.cohort)
	}
	if cfg.cohort > cfg.numClients {
		return serverConfig{}, fmt.Errorf("-cohort %d exceeds the federation size %d", cfg.cohort, cfg.numClients)
	}
	if cfg.relays < 0 {
		return serverConfig{}, fmt.Errorf("-relays %d is negative", cfg.relays)
	}
	if cfg.buffer < 0 {
		return serverConfig{}, fmt.Errorf("-buffer %d is negative", cfg.buffer)
	}
	if cfg.relays > 0 && cfg.buffer > 0 {
		return serverConfig{}, fmt.Errorf("-relays %d and -buffer %d are mutually exclusive: "+
			"a relay tree runs synchronous region rounds; run the buffered-async server flat", cfg.relays, cfg.buffer)
	}
	if cfg.relays > 0 {
		if cfg.relays > cfg.numClients {
			return serverConfig{}, fmt.Errorf("-relays %d exceeds -clients %d: every region needs at least one leaf client",
				cfg.relays, cfg.numClients)
		}
		if cfg.cohort > cfg.relays {
			return serverConfig{}, fmt.Errorf("-cohort %d exceeds the %d relay regions a round can contact", cfg.cohort, cfg.relays)
		}
	}
	if cfg.buffer > 0 {
		if cfg.buffer > cfg.numClients {
			return serverConfig{}, fmt.Errorf("-buffer %d exceeds -clients %d: each client holds at most one "+
				"outstanding update, so the buffer could never fill", cfg.buffer, cfg.numClients)
		}
		if cfg.cohort > 0 {
			return serverConfig{}, fmt.Errorf("-cohort %d schedules synchronous rounds and cannot combine with -buffer %d: "+
				"the async engine dispatches to every idle client at each aggregation; drop -cohort or -buffer", cfg.cohort, cfg.buffer)
		}
		if cfg.tiers || cfg.tierDistSpec != "" {
			return serverConfig{}, fmt.Errorf("-tiers cannot combine with -buffer: masked per-layer aggregation assumes synchronous rounds")
		}
	}
	if cfg.maxStaleness >= 0 && cfg.buffer == 0 {
		return serverConfig{}, fmt.Errorf("-max-staleness %d needs -buffer: staleness only exists in buffered-async mode", cfg.maxStaleness)
	}
	if cfg.stalenessSpec != "" && cfg.buffer == 0 {
		return serverConfig{}, fmt.Errorf("-staleness %q needs -buffer: staleness only exists in buffered-async mode", cfg.stalenessSpec)
	}
	if cfg.buffer > 0 {
		weigher, err := strategy.ParseStaleness(cfg.stalenessSpec)
		if err != nil {
			return serverConfig{}, fmt.Errorf("-staleness: %w", err)
		}
		cfg.weigher = weigher
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
		cfg.codec, cfg.codecName = codec, codec.Name()
	}
	if cfg.codec != nil && cfg.codec.NeedsReference() && cfg.buffer > 0 {
		return serverConfig{}, fmt.Errorf("-codec %s cannot combine with -buffer: the codec decodes against "+
			"the round's broadcast reference, which buffered-async clients no longer share; use float16", cfg.codecName)
	}
	// A -quorum above 1 is an absolute update count. It must be an integer,
	// and it must be reachable: a quorum no round can ever meet — more
	// updates than the clients a round contacts — is rejected now, not
	// discovered as an eternal ErrQuorum at round 1.
	if cfg.quorum > 1 {
		if cfg.quorum != math.Trunc(cfg.quorum) {
			return serverConfig{}, fmt.Errorf("-quorum %v: values above 1 are absolute update counts and must be integers", cfg.quorum)
		}
		cfg.minUpdates, cfg.quorum = int(cfg.quorum), 0
		roundSize := cfg.numClients
		if cfg.relays > 0 {
			roundSize = cfg.relays
		}
		if cfg.cohort > 0 {
			roundSize = cfg.cohort
		}
		if cfg.minUpdates > roundSize {
			return serverConfig{}, fmt.Errorf("-quorum %d exceeds the %d participants a round can contact "+
				"(-cohort %d, -relays %d, -clients %d): no round could ever succeed",
				cfg.minUpdates, roundSize, cfg.cohort, cfg.relays, cfg.numClients)
		}
	}
	// In async mode there is no round for a quorum to gate: admission is the
	// buffer itself. Any explicit quorum alongside -buffer is a configuration
	// contradiction, named as such.
	if cfg.buffer > 0 && (cfg.minUpdates > 0 || cfg.quorum != 1) {
		if cfg.minUpdates > 0 {
			return serverConfig{}, fmt.Errorf("-quorum %d is an absolute synchronous-round update count and -buffer %d "+
				"is the async aggregation trigger: the two admission rules are mutually exclusive; drop -quorum "+
				"(async aggregates whenever -buffer updates arrive) or -buffer (synchronous rounds gate on -quorum)",
				cfg.minUpdates, cfg.buffer)
		}
		return serverConfig{}, fmt.Errorf("-quorum %v gates synchronous rounds and cannot combine with -buffer %d: "+
			"async aggregation triggers on the buffer itself; drop -quorum or -buffer", cfg.quorum, cfg.buffer)
	}
	if cfg.tierDistSpec != "" {
		cfg.tiers = true
	}
	if cfg.tiers {
		spec := cfg.tierDistSpec
		if spec == "" {
			spec = defaultTierSpec
		}
		dist, err := device.ParseDistribution(spec)
		if err != nil {
			return serverConfig{}, fmt.Errorf("-tier-dist: %w", err)
		}
		cfg.tierDist = dist
	}
	// The policy name is validated even with -cohort 0, so a typo surfaces
	// now and not on the day scheduling is switched on.
	scheduler, err := sched.Parse(cfg.schedName)
	if err != nil {
		return serverConfig{}, err
	}
	if cfg.cohort > 0 {
		cfg.scheduler = scheduler
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
	return serve(cfg, l)
}

// configTag fingerprints the server flags that shape the federation's
// training trajectory, so a checkpoint written under one configuration is
// never silently continued under another (the same refusal Runner applies).
// Quorum and deadline are included: they decide which client updates enter
// each aggregate; a non-default strategy contributes its Fingerprint (the
// default fedavg contributes nothing, keeping pre-strategy checkpoints
// resumable). Only -addr and -ckpt-dir stay out — where the federation
// listens and stores cannot change what it computes.
func (c serverConfig) configTag() uint64 {
	parts := []any{c.numClients, c.fraction, c.epochs, c.cohort, c.schedName,
		c.quorum, c.roundDeadline}
	if s := c.taggedStrategy(); s != nil {
		parts = append(parts, s.Fingerprint())
	}
	// Absolute quorum and tier distribution are appended only when set, so
	// untiered fractional-quorum servers keep their pre-tier tags — and
	// their committed checkpoints — unchanged.
	if c.minUpdates > 0 {
		parts = append(parts, fmt.Sprintf("minupdates:%d", c.minUpdates))
	}
	if c.tierDist != nil {
		parts = append(parts, "tiers:"+c.tierDist.String())
	}
	// Hierarchical and async parts follow the same append-only rule: a relay
	// tree changes which peers the round contacts, and buffer/staleness decide
	// which updates enter each aggregate at what weight, so a checkpoint never
	// silently crosses the flat/relay or sync/async boundary.
	if c.relays > 0 {
		parts = append(parts, fmt.Sprintf("relays:%d", c.relays))
	}
	if c.buffer > 0 {
		parts = append(parts, fmt.Sprintf("buffer:%d", c.buffer), "staleness:"+c.weigher.Name())
		if c.maxStaleness >= 0 {
			parts = append(parts, fmt.Sprintf("maxstale:%d", c.maxStaleness))
		}
	}
	// A lossy codec changes every update that enters the aggregate; identity
	// contributes nothing, so pre-codec checkpoints stay resumable.
	if c.codecName != "" {
		parts = append(parts, "codec:"+c.codecName)
	}
	return core.TagConfig(parts...)
}

// restoreFederation warm-starts the server from the newest checkpoint in
// cfg.ckptDir, installing the saved global model, history, accounting and
// scheduler feedback. It returns the last completed round plus the saved
// async engine state (nil outside buffered mode), or 0 (and no changes) when
// the directory holds no checkpoint yet. Validation is the shared
// core.RunState rule set, so the server refuses exactly what the simulator
// refuses: wrong seed, different configuration, a round beyond -rounds, an
// inconsistent history, or a mismatched scheduler.
func restoreFederation(cfg serverConfig, global *models.Model, hist *core.History,
	cumTrainSeconds *float64, tracker *sched.Tracker) (int, *core.AsyncState, error) {
	snap, err := core.LoadLatestRunState(cfg.ckptDir)
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	if err := snap.ValidateFor(cfg.seed, cfg.rounds, cfg.configTag(), cfg.scheduler, cfg.taggedStrategy(), cfg.tierSpec(), cfg.codecName, ""); err != nil {
		return 0, nil, err
	}
	if err := snap.RestoreScheduler(cfg.scheduler); err != nil {
		return 0, nil, err
	}
	if err := snap.RestoreStrategy(cfg.taggedStrategy()); err != nil {
		return 0, nil, err
	}
	if err := core.RestoreModelState(global, snap.Model); err != nil {
		return 0, nil, err
	}
	*hist = snap.Hist
	*cumTrainSeconds = snap.Acct.TrainSeconds
	tracker.Restore(snap.TrackerUtil, snap.TrackerSeconds)
	return snap.Round, snap.Async, nil
}

// snapshotFederation writes the post-aggregation state of one round into
// cfg.ckptDir, so a crashed server warm-starts from here instead of
// discarding the federation's progress. async carries the buffered-mode
// engine state (version counter plus not-yet-aggregated updates); nil in
// synchronous mode keeps the checkpoint bytes identical to pre-async
// servers.
func snapshotFederation(cfg serverConfig, round int, global *models.Model, hist core.History,
	cumTrainSeconds float64, tracker *sched.Tracker, async *core.AsyncState) error {
	snap := &core.RunState{
		Seed:      cfg.seed,
		ConfigTag: cfg.configTag(),
		Round:     round,
		Model:     core.SnapshotModelState(global),
		Hist:      hist,
		Acct:      simtime.AccountantState{TrainSeconds: cumTrainSeconds},
		Async:     async,
	}
	snap.TrackerUtil, snap.TrackerSeconds = tracker.Export()
	if err := snap.CaptureScheduler(cfg.scheduler); err != nil {
		return err
	}
	snap.CaptureStrategy(cfg.taggedStrategy())
	snap.TierSpec = cfg.tierSpec()
	// The server never holds error-feedback residuals (they live client-side),
	// so the codec section carries only the spec.
	snap.CodecName = cfg.codecName
	return core.SaveRunState(ckpt.Path(cfg.ckptDir, round), snap)
}

// regionAsUpdate reshapes a relay's folded delta into the ClientUpdate the
// aggregation and strategy layers already understand: the region is one
// heavyweight participant whose selected-sample mass is the sum over its
// reporting leaves, which reproduces the flat federation's weighted average
// exactly under the default selected-size weighting.
func regionAsUpdate(ru comm.RegionUpdate) comm.ClientUpdate {
	return comm.ClientUpdate{
		ClientID:     ru.RelayID,
		Round:        ru.Round,
		Version:      ru.Version,
		State:        ru.State,
		Codec:        ru.Codec,
		NumSelected:  ru.NumSelected,
		TrainSeconds: ru.TrainSeconds,
		TrainLoss:    ru.TrainLoss,
		MeanEntropy:  ru.MeanEntropy,
	}
}

// serve drives one federation on an established listener. With -ckpt-dir it
// snapshots after every aggregated round and warm-starts from the latest
// checkpoint, so a crashed-and-restarted server resumes the federation where
// it stopped (clients reconnect and follow the server's round numbering).
// With -relays the round's participants are fedrelay regions instead of leaf
// clients; with -buffer the synchronous round loop is replaced by buffered
// asynchronous aggregation (serveAsync).
func serve(cfg serverConfig, l comm.Listener) error {
	if cfg.buffer > 0 {
		return serveAsync(cfg, l)
	}
	engineCfg := comm.EngineConfig{RoundDeadline: cfg.roundDeadline, Quorum: cfg.quorum,
		MinUpdates: cfg.minUpdates}
	if err := engineCfg.Validate(); err != nil {
		return err
	}

	// Build the shared world: domains, pretrained global model, test set.
	world, err := NewWorld(cfg.seed, cfg.numClients)
	if err != nil {
		return err
	}
	global := world.Global
	commGroups := global.TrainableGroupNames()

	// Report rounds through the same History the in-process simulator
	// produces, so distributed and simulated runs are directly comparable.
	var hist core.History
	var cumTrainSeconds float64
	tracker := sched.NewTracker()
	startRound := 0
	if cfg.ckptDir != "" {
		startRound, _, err = restoreFederation(cfg, global, &hist, &cumTrainSeconds, tracker)
		if err != nil {
			return fmt.Errorf("warm-start from %s: %w", cfg.ckptDir, err)
		}
		if startRound > 0 {
			log.Printf("warm-start: resuming after round %d from %s", startRound, cfg.ckptDir)
		}
	}

	// In hierarchical mode the direct participants are the relay regions, not
	// the leaf clients they cover.
	participants := cfg.numClients
	if cfg.relays > 0 {
		participants = cfg.relays
		log.Printf("listening on %s, waiting for %d relay regions covering %d clients", l.Addr(), cfg.relays, cfg.numClients)
	} else {
		log.Printf("listening on %s, waiting for %d clients", l.Addr(), cfg.numClients)
	}
	sess, err := comm.AcceptClientsCodec(l, participants, cfg.rounds, cfg.codecName)
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Shutdown("done"); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	log.Printf("federation ready: clients %v, strategy %s, codec %s",
		sess.ClientIDs(), cfg.strat.Fingerprint(), cfg.codecSpec)

	engine, err := comm.NewRoundEngine(sess, engineCfg)
	if err != nil {
		return err
	}

	// A relay region is a process worth restarting: keep the listener
	// admitting behind the round loop so a crashed relay re-registers and
	// rejoins at the next round boundary instead of shrinking the tree for
	// good.
	var admitter *comm.Admitter
	if cfg.relays > 0 {
		if admitter, err = comm.NewAdmitterCodec(l, participants, cfg.rounds, cfg.codecName); err != nil {
			return err
		}
	}

	// The strategy weighs each streamed update (absorbing the fixed
	// selected-size weighting) and later applies the weighted average to
	// the global model through its server optimizer.
	lambda := 1.0
	weigh := updateWeigher(cfg.strat, sess, &lambda)

	// One aggregator serves every round (Finish resets it). In tier mode
	// clients ship only the groups their capability affords, so it is built
	// over the layout and averages each tensor over exactly the clients that
	// covered it, uncovered tensors falling back to the current global state;
	// untiered updates cover everything. In relay mode the per-layer work
	// happens one tier down: each relay resolves its region's masks against
	// the broadcast Layout and forwards a full-layout delta, so the root
	// composes whole states even when the leaves are tiered.
	agg := comm.NewWeightedStreamAggregator(weigh)
	var bcastLayout []string
	if cfg.tierDist != nil {
		layout, err := global.GroupStateLayout(commGroups)
		if err != nil {
			return err
		}
		if cfg.relays > 0 {
			bcastLayout = layout
		} else if agg, err = comm.NewMaskedStreamAggregator(weigh, commGroups, layout); err != nil {
			return err
		}
	}

	for round := startRound + 1; round <= cfg.rounds; round++ {
		// Fold in crashed-and-restarted relays at the round boundary, never
		// mid-round: the session map stays single-writer.
		if admitter != nil {
			if ids := admitter.Drain(sess); len(ids) > 0 {
				log.Printf("round %d: re-admitted relays %v", round, ids)
			}
		}
		stateTs, err := global.GroupStateTensors(commGroups)
		if err != nil {
			return err
		}
		blob, err := comm.EncodeTensors(stateTs)
		if err != nil {
			return err
		}

		// Schedule the round's cohort from the live clients; with -cohort 0
		// the whole federation trains, as it always did.
		live := sess.ClientIDs()
		cohort, policy := live, ""
		if cfg.scheduler != nil {
			cohort = scheduleCohort(cfg, tracker, sess, round, live)
			policy = cfg.scheduler.Name()
		}

		// Stream each update into the weighted sum as it arrives: the
		// server holds one decoded state at a time, O(state) not O(N·state).
		// The round's broadcast tensors (stateTs, still holding the broadcast
		// values until ApplyAggregate below) are what every update is
		// validated against, what a lossy codec decodes against, and what
		// uncovered tensors fall back to.
		agg.SetCodec(cfg.codec, stateTs)
		var roundTrainSeconds, lossSum float64
		foldOne := func(u comm.ClientUpdate) error {
			if err := agg.Add(u); err != nil {
				return err
			}
			roundTrainSeconds += u.TrainSeconds
			lossSum += u.TrainLoss
			tracker.ObserveUpdate(u.ClientID, u.MeanEntropy, u.TrainLoss, u.TrainSeconds)
			return nil
		}
		rs := comm.RoundStart{
			Round:          round,
			State:          blob,
			Groups:         commGroups,
			SelectFraction: cfg.fraction,
			LocalEpochs:    cfg.epochs,
			Layout:         bcastLayout,
		}
		var out comm.RoundOutcome
		if cfg.relays > 0 {
			out, err = engine.RunRegionRound(rs, cohort, func(ru comm.RegionUpdate) error {
				return foldOne(regionAsUpdate(ru))
			})
		} else {
			out, err = engine.RunCohort(rs, cohort, foldOne)
		}
		logFailures(out)
		if err != nil {
			return err
		}
		// A timed-out client took at least the whole deadline; record that so
		// time-driven policies stop treating a hung client as instant.
		for _, id := range out.TimedOut {
			tracker.ObserveTimeout(id, cfg.roundDeadline.Seconds())
		}
		fused, err := agg.Finish()
		if err != nil {
			return err
		}
		// stateTs are live views of the global model's groups — the
		// strategy's server optimizer folds the weighted average into them
		// (fedavg overwrites, exactly the pre-strategy behavior).
		if err := cfg.strat.ApplyAggregate(stateTs, fused); err != nil {
			return fmt.Errorf("strategy %s: round %d: %w", cfg.strat.Name(), round, err)
		}

		acc, err := metrics.Accuracy(global, world.Test)
		if err != nil {
			return err
		}
		cumTrainSeconds += roundTrainSeconds
		hist.Records = append(hist.Records, core.RoundRecord{
			Round:           round,
			CohortSize:      len(cohort),
			SchedPolicy:     policy,
			Participants:    len(out.Reported),
			TestAccuracy:    acc,
			MeanTrainLoss:   lossSum / float64(len(out.Reported)),
			CumTrainSeconds: cumTrainSeconds,
		})
		if acc > hist.BestAccuracy {
			hist.BestAccuracy = acc
		}
		hist.FinalAccuracy = acc
		log.Printf("round %d/%d: cohort %d/%d, %d reported (%d timed out, %d dropped, %d late), test accuracy %.2f%%",
			round, cfg.rounds, len(cohort), len(live),
			len(out.Reported), len(out.TimedOut), len(out.Dropped), out.LateDiscarded, 100*acc)

		if cfg.ckptDir != "" {
			if err := snapshotFederation(cfg, round, global, hist, cumTrainSeconds, tracker, nil); err != nil {
				return fmt.Errorf("checkpoint round %d: %w", round, err)
			}
		}
	}
	logRunComplete(hist, cumTrainSeconds)
	return nil
}

// serveAsync drives buffered asynchronous (FedBuff-style) aggregation: every
// client trains continuously against the newest model it has seen, the
// server aggregates whenever -buffer updates accumulated, and stale
// contributions are discounted by the -staleness weigher (or discarded past
// -max-staleness). -rounds counts aggregations. With -buffer equal to
// -clients and the identity weigher the loop reproduces the synchronous
// serve arithmetic exactly; checkpoints additionally carry the engine's
// version counter and mid-buffer updates, so a restarted server resumes
// without losing work that had already arrived.
func serveAsync(cfg serverConfig, l comm.Listener) error {
	world, err := NewWorld(cfg.seed, cfg.numClients)
	if err != nil {
		return err
	}
	global := world.Global
	commGroups := global.TrainableGroupNames()

	var hist core.History
	var cumTrainSeconds float64
	tracker := sched.NewTracker()
	startAgg := 0
	var restored *core.AsyncState
	if cfg.ckptDir != "" {
		startAgg, restored, err = restoreFederation(cfg, global, &hist, &cumTrainSeconds, tracker)
		if err != nil {
			return fmt.Errorf("warm-start from %s: %w", cfg.ckptDir, err)
		}
		if startAgg > 0 {
			buffered := 0
			if restored != nil {
				buffered = len(restored.Buffer)
			}
			log.Printf("warm-start: resuming after aggregation %d (%d buffered updates) from %s",
				startAgg, buffered, cfg.ckptDir)
		}
	}

	log.Printf("listening on %s, waiting for %d clients (async, buffer %d)", l.Addr(), cfg.numClients, cfg.buffer)
	sess, err := comm.AcceptClientsCodec(l, cfg.numClients, cfg.rounds, cfg.codecName)
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Shutdown("done"); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	log.Printf("federation ready: clients %v, strategy %s, staleness %s",
		sess.ClientIDs(), cfg.strat.Fingerprint(), cfg.weigher.Name())

	engine, err := comm.NewAsyncEngine(sess, comm.AsyncConfig{
		Buffer:       cfg.buffer,
		MaxStaleness: cfg.maxStaleness,
		Weigh:        cfg.weigher.Weight,
		AggDeadline:  cfg.roundDeadline,
	})
	if err != nil {
		return err
	}
	if restored != nil {
		if err := engine.Restore(restored.Version, restored.Buffer); err != nil {
			return err
		}
	}

	// The strategy weighs each update as in the synchronous path; the async
	// engine's staleness discount multiplies on top. curLambda is set by the
	// fold immediately before the aggregator calls the weigher (both run on
	// this goroutine, never concurrently). A fresh update's lambda is exactly
	// 1.0, so the multiplication is a float no-op and the synchronous special
	// case stays bit-identical.
	curLambda := 1.0
	aggStream := comm.NewWeightedStreamAggregator(updateWeigher(cfg.strat, sess, &curLambda))

	for agg := startAgg + 1; agg <= cfg.rounds; agg++ {
		stateTs, err := global.GroupStateTensors(commGroups)
		if err != nil {
			return err
		}
		blob, err := comm.EncodeTensors(stateTs)
		if err != nil {
			return err
		}
		// Only reference-free codecs reach async mode (parseFlags refused the
		// rest), so a stale update never decodes against stateTs; the
		// aggregator still validates every update's tensor count and shapes
		// against it, which no model version changes.
		aggStream.SetCodec(cfg.codec, stateTs)
		var roundTrainSeconds, lossSum float64
		out, err := engine.RunAggregation(agg, comm.RoundStart{
			State:          blob,
			Groups:         commGroups,
			SelectFraction: cfg.fraction,
			LocalEpochs:    cfg.epochs,
		}, func(u comm.ClientUpdate, lambda float64) error {
			curLambda = lambda
			if err := aggStream.Add(u); err != nil {
				return err
			}
			roundTrainSeconds += u.TrainSeconds
			lossSum += u.TrainLoss
			tracker.ObserveUpdate(u.ClientID, u.MeanEntropy, u.TrainLoss, u.TrainSeconds)
			return nil
		})
		logAggFailures(out)
		if err != nil {
			return err
		}
		fused, err := aggStream.Finish()
		if err != nil {
			return err
		}
		if err := cfg.strat.ApplyAggregate(stateTs, fused); err != nil {
			return fmt.Errorf("strategy %s: aggregation %d: %w", cfg.strat.Name(), agg, err)
		}

		acc, err := metrics.Accuracy(global, world.Test)
		if err != nil {
			return err
		}
		cumTrainSeconds += roundTrainSeconds
		hist.Records = append(hist.Records, core.RoundRecord{
			Round:           agg,
			CohortSize:      len(out.Reported) + out.Discarded,
			Participants:    len(out.Reported),
			TestAccuracy:    acc,
			MeanTrainLoss:   lossSum / float64(len(out.Reported)),
			CumTrainSeconds: cumTrainSeconds,
		})
		if acc > hist.BestAccuracy {
			hist.BestAccuracy = acc
		}
		hist.FinalAccuracy = acc
		log.Printf("aggregation %d/%d: model v%d, %d folded (%d stale discarded, %d dropped), test accuracy %.2f%%",
			agg, cfg.rounds, out.Version, len(out.Reported), out.Discarded, len(out.Dropped), 100*acc)

		if cfg.ckptDir != "" {
			async := &core.AsyncState{Version: engine.Version(), Buffer: engine.Buffered()}
			if err := snapshotFederation(cfg, agg, global, hist, cumTrainSeconds, tracker, async); err != nil {
				return fmt.Errorf("checkpoint aggregation %d: %w", agg, err)
			}
		}
	}
	logRunComplete(hist, cumTrainSeconds)
	return nil
}

// updateWeigher routes the strategy's WeighUpdates rule into the streaming
// fold, one update at a time, multiplying *lambda on top — the async engine's
// staleness discount for the update being folded, 1 in synchronous rounds.
// The one-element scratch keeps the streaming path allocation-light.
func updateWeigher(strat strategy.Strategy, sess *comm.ServerSession, lambda *float64) comm.WeightFunc {
	var (
		upScratch [1]strategy.Update
		wScratch  [1]float64
	)
	return func(u comm.ClientUpdate) (float64, error) {
		upScratch[0] = strategy.Update{
			ClientID:    u.ClientID,
			NumSelected: u.NumSelected,
			LocalSize:   sess.LocalSize(u.ClientID),
		}
		if err := strat.WeighUpdates(upScratch[:], wScratch[:]); err != nil {
			return 0, err
		}
		return wScratch[0] * *lambda, nil
	}
}

// logRunComplete closes the run's history and reports its headline numbers.
func logRunComplete(hist core.History, cumTrainSeconds float64) {
	hist.TotalTrainSeconds = cumTrainSeconds
	if eff, err := hist.LearningEfficiency(); err == nil {
		log.Printf("run complete: best accuracy %.2f%%, total client time %.1fs, learning efficiency %.2f %%/s",
			100*hist.BestAccuracy, hist.TotalTrainSeconds, eff)
	} else {
		log.Printf("run complete: best accuracy %.2f%%", 100*hist.BestAccuracy)
	}
}

// logAggFailures reports an aggregation's dropped clients in deterministic
// order, the async counterpart of logFailures.
func logAggFailures(out comm.AggOutcome) {
	ids := make([]int, 0, len(out.Failures))
	for id := range out.Failures {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		log.Printf("aggregation %d: client %d: %v", out.Agg, id, out.Failures[id])
	}
}

// scheduleCohort builds the candidate descriptors for the live clients and
// asks the policy for this round's cohort. The candidate's projected time is
// the client's last reported round seconds (zero before first contact), its
// size the Hello-reported |D_i|, and its utility the tracker's latest value.
func scheduleCohort(cfg serverConfig, tracker *sched.Tracker, sess *comm.ServerSession, round int, live []int) []int {
	cands := make([]sched.Candidate, len(live))
	for i, id := range live {
		cands[i] = sched.Candidate{
			ClientID:         id,
			DataSize:         sess.LocalSize(id),
			ProjectedSeconds: tracker.Seconds(id),
			Available:        true,
			Tier:             sess.Tier(id),
			Clients:          sess.DownstreamClients(id),
		}
	}
	tracker.Stamp(cands)
	k := cfg.cohort
	if k > len(live) {
		k = len(live)
	}
	rng := tensor.NewRand(uint64(cfg.seed), uint64(round), sched.StreamTag)
	return cfg.scheduler.Schedule(round, cands, k, rng)
}

// logFailures reports a round's failed clients in deterministic order.
func logFailures(out comm.RoundOutcome) {
	ids := make([]int, 0, len(out.Failures))
	for id := range out.Failures {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		log.Printf("round %d: client %d: %v", out.Round, id, out.Failures[id])
	}
}

// World is the deterministic shared setup both binaries derive from -seed.
type World struct {
	// Global is the pretrained global model with the paper's moderate
	// finetune part set.
	Global *models.Model
	// Test is the held-out evaluation set.
	Test *data.Dataset
}

// NewWorld builds the shared federation world for the distributed demo:
// standard domain suite, a source-pretrained model, and the test set.
func NewWorld(seed int64, numClients int) (*World, error) {
	env, err := experiments.NewEnv(experiments.ScaleFast, seed)
	if err != nil {
		return nil, err
	}
	global, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
	if err != nil {
		return nil, err
	}
	if err := global.SetFinetunePart(models.FinetuneModerate); err != nil {
		return nil, err
	}
	fed, err := env.BuildFederation(env.Suite.Target10, numClients, 0.1, 31337)
	if err != nil {
		return nil, err
	}
	return &World{Global: global, Test: fed.Test}, nil
}
