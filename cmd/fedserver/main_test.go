package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/experiments"
	"fedfteds/internal/federation"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumClients != 2 || cfg.Run.Rounds != 10 || cfg.Quorum != 1 || cfg.RoundDeadline != 0 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Run.CohortSize != 0 || cfg.Run.Scheduler != nil {
		t.Fatalf("scheduling must default off: %+v", cfg)
	}
	if cfg.SchedName != "uniform" {
		t.Fatalf("default policy %q", cfg.SchedName)
	}
	if cfg.Run.Strategy == nil || !strategy.IsDefault(cfg.Run.Strategy) {
		t.Fatalf("strategy must default to fedavg: %+v", cfg.Run.Strategy)
	}
	if cfg.TaggedStrategy() != nil {
		t.Fatal("default strategy must stay out of the checkpoint tag")
	}
}

// TestParseFlagsStrategy pins the -strategy flag: shared vocabulary with
// fedsim, inline parameters, fail-fast rejection of bad specs.
func TestParseFlagsStrategy(t *testing.T) {
	cfg, err := parseFlags([]string{"-strategy", "fedadam:lr=0.05,beta1=0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Run.Strategy.Name() != "fedadam" {
		t.Fatalf("strategy name %q", cfg.Run.Strategy.Name())
	}
	if cfg.TaggedStrategy() == nil {
		t.Fatal("non-default strategy missing from the checkpoint tag")
	}
	// An edited strategy must change the config tag (the resume refusal).
	base, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ConfigTag() == base.ConfigTag() {
		t.Fatal("fedadam and fedavg share a config tag")
	}

	for _, name := range []string{"fedavg", "fedprox", "fedavgm", "fedadam", "fedyogi", "fedyogi:lr=0.2"} {
		if _, err := parseFlags([]string{"-strategy", name}); err != nil {
			t.Fatalf("strategy %q rejected: %v", name, err)
		}
	}
	for _, bad := range []string{"sgd", "fedadam:lr=0", "fedadam:gamma=2", "fedprox:mu=-1"} {
		if _, err := parseFlags([]string{"-strategy", bad}); err == nil {
			t.Fatalf("strategy %q accepted", bad)
		}
	}
}

func TestParseFlagsSchedulingOn(t *testing.T) {
	cfg, err := parseFlags([]string{"-clients", "8", "-cohort", "3", "-sched", "avail:entropy",
		"-round-deadline", "90s", "-quorum", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Run.CohortSize != 3 || cfg.Run.Scheduler == nil || cfg.Run.Scheduler.Name() != "avail:entropy" {
		t.Fatalf("scheduling config: %+v", cfg)
	}
	if cfg.RoundDeadline != 90*time.Second || cfg.Quorum != 0.5 {
		t.Fatalf("engine flags: %+v", cfg)
	}
}

func TestParseFlagsFailFast(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"zero quorum", []string{"-quorum", "0"}, "-quorum"},
		{"negative quorum", []string{"-quorum", "-0.1"}, "-quorum"},
		{"quorum above one", []string{"-quorum", "1.5"}, "-quorum"},
		{"negative deadline", []string{"-round-deadline", "-10s"}, "-round-deadline"},
		{"zero clients", []string{"-clients", "0"}, "-clients"},
		{"zero fraction", []string{"-fraction", "0"}, "-fraction"},
		{"fraction above one", []string{"-fraction", "1.5"}, "-fraction"},
		{"zero epochs", []string{"-epochs", "0"}, "-epochs"},
		{"zero temperature", []string{"-temperature", "0"}, "-temperature"},
		{"negative temperature", []string{"-temperature", "-0.1"}, "-temperature"},
		{"zero rounds", []string{"-rounds", "0"}, "-rounds"},
		{"negative cohort", []string{"-cohort", "-1"}, "-cohort"},
		{"cohort beyond pool", []string{"-clients", "3", "-cohort", "4"}, "-cohort"},
		{"unknown policy", []string{"-sched", "fifo"}, "unknown policy"},
		{"unknown policy with scheduling off", []string{"-cohort", "0", "-sched", "nope"}, "unknown policy"},
		{"unknown inner policy", []string{"-cohort", "2", "-clients", "4", "-sched", "avail:fifo"}, "unknown policy"},
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

// TestParseFlagsSchedNamesMatchFedsim pins the shared policy vocabulary:
// every name fedserver accepts must parse, so the fedsim and fedserver
// -sched flags stay interchangeable.
func TestParseFlagsSchedNamesMatchFedsim(t *testing.T) {
	for _, name := range []string{"uniform", "size", "entropy", "powerd", "tier", "avail:uniform", "avail:powerd", "avail:tier"} {
		if _, err := parseFlags([]string{"-clients", "4", "-cohort", "2", "-sched", name}); err != nil {
			t.Fatalf("policy %q rejected: %v", name, err)
		}
	}
}

// TestParseFlagsCheckpointDir covers the new -ckpt-dir flag: accepted and
// created when usable, rejected fail-fast when not.
func TestParseFlagsCheckpointDir(t *testing.T) {
	dir := t.TempDir() + "/ckpts"
	cfg, err := parseFlags([]string{"-ckpt-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Run.CheckpointDir != dir {
		t.Fatalf("ckptDir %q", cfg.Run.CheckpointDir)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("checkpoint dir not created: %v", err)
	}

	// A path below an existing file cannot be created: fail before serving.
	occupied := t.TempDir() + "/occupied"
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFlags([]string{"-ckpt-dir", occupied + "/sub"}); err == nil {
		t.Fatal("expected error for uncreatable -ckpt-dir")
	}
}

// testWorld returns the shared world of a seed-1 federation of numClients,
// built once per size for the whole package: servers and clients Clone its
// model instead of pretraining their own.
func testWorld(t *testing.T, numClients int) *experiments.World {
	t.Helper()
	worldsMu.Lock()
	defer worldsMu.Unlock()
	if w, ok := worlds[numClients]; ok {
		return w
	}
	w, err := experiments.NewWorld(1, numClients)
	if err != nil {
		t.Fatal(err)
	}
	worlds[numClients] = w
	return w
}

var (
	worldsMu sync.Mutex
	worlds   = map[int]*experiments.World{}
)

// testClient runs fedclient's own round (federation.Join + Client.Run) on
// conn, configured like a fleet member of cfg's federation. When dieAfter > 0
// it vanishes, connection severed, on the first RoundStart past that round:
// a client-side crash after completing round dieAfter.
func testClient(w *experiments.World, conn comm.Conn, id int, cfg serverConfig, dieAfter int) error {
	model, err := w.Global.Clone()
	if err != nil {
		return err
	}
	client, err := federation.Join(conn, federation.ClientConfig{ID: id, NumClients: cfg.NumClients, Seed: cfg.Run.Seed},
		model, w.Clients[id])
	if err != nil {
		return err
	}
	return client.Run(func(rs comm.RoundStart) error {
		if dieAfter > 0 && rs.Round > dieAfter {
			return errors.New("crash")
		}
		return nil
	}, nil)
}

// federate serves the federation args describe on l, with one in-process
// testClient per client dialing through dial. It returns the server's own
// copy of the global model after the run plus Serve's results. A client's
// error fails the test unless it was told to crash or the buffer is partial:
// such a run ends with updates in flight, whose clients may find their
// session closed mid-send.
func federate(t *testing.T, w *experiments.World, args []string, l comm.Listener, dial func(id int) (comm.Conn, error), dieAfter int) (*models.Model, core.History, error) {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	global, err := w.Global.Clone()
	if err != nil {
		t.Fatal(err)
	}
	type served struct {
		hist core.History
		err  error
	}
	serveDone := make(chan served, 1)
	go func() {
		hist, err := federation.Serve(cfg.Config, l, global, w.Test)
		serveDone <- served{hist, err}
	}()
	clientErr := make(chan error, cfg.NumClients)
	for id := 0; id < cfg.NumClients; id++ {
		go func(id int) {
			conn, err := dial(id)
			if err != nil {
				clientErr <- err
				return
			}
			clientErr <- testClient(w, conn, id, cfg, dieAfter)
		}(id)
	}
	partial := cfg.Run.Async.Buffer > 0 && cfg.Run.Async.Buffer < cfg.NumClients
	for i := 0; i < cfg.NumClients; i++ {
		if err := <-clientErr; err != nil && dieAfter == 0 && !partial {
			t.Fatalf("client: %v", err)
		}
	}
	out := <-serveDone
	return global, out.hist, out.err
}

// runFederation serves one TCP federation with the given server flags and
// one in-process client per -clients that (when dieAfter > 0) vanishes after
// that round. It returns Serve's error.
func runFederation(t *testing.T, w *experiments.World, args []string, dieAfter int) error {
	t.Helper()
	l, err := comm.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, _, err = federate(t, w, args, l, func(int) (comm.Conn, error) {
		return comm.DialTCP(l.Addr(), 10*time.Second)
	}, dieAfter)
	return err
}

// warmStartRefused reports whether a server configured by args refuses the
// checkpoints in its -ckpt-dir. Serve restores before it accepts, so on a
// listener nobody can join it returns either the restore's refusal or, had
// the checkpoint been admitted, the accept failure.
func warmStartRefused(t *testing.T, w *experiments.World, args []string) bool {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	global, err := w.Global.Clone()
	if err != nil {
		t.Fatal(err)
	}
	_, err = federation.Serve(cfg.Config, comm.NewPipeListener(0), global, w.Test)
	return err != nil && strings.Contains(err.Error(), "warm-start from")
}

// TestServerCrashResume is the acceptance demo as a test: a fedserver killed
// mid-federation (here: it errors out when every client vanishes after round
// 2) and restarted with the same -ckpt-dir completes the remaining rounds on
// top of the checkpointed progress instead of starting over.
func TestServerCrashResume(t *testing.T) {
	const (
		numClients = 2
		rounds     = 4
		dieAfter   = 2
		seed       = int64(1)
	)
	ckptDir := t.TempDir()
	w := testWorld(t, numClients)
	phase := func(dieAfterRound int) error {
		return runFederation(t, w, []string{
			"-clients", "2", "-rounds", "4", "-epochs", "1", "-seed", "1",
			"-ckpt-dir", ckptDir,
		}, dieAfterRound)
	}

	// Phase 1: every client vanishes after round 2; the federation dies
	// mid-flight with rounds 1–2 checkpointed.
	if err := phase(dieAfter); err == nil {
		t.Fatal("server survived losing every client; expected a mid-federation failure")
	}
	crashed, err := core.LoadLatestRunState(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Round != dieAfter {
		t.Fatalf("crash left checkpoint at round %d, want %d", crashed.Round, dieAfter)
	}

	// Phase 2: a restarted server with the same -ckpt-dir and fresh clients
	// finishes the remaining rounds.
	if err := phase(0); err != nil {
		t.Fatalf("restarted server failed: %v", err)
	}
	final, err := core.LoadLatestRunState(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != rounds {
		t.Fatalf("final checkpoint at round %d, want %d", final.Round, rounds)
	}
	if len(final.Hist.Records) != rounds {
		t.Fatalf("final history has %d records, want %d", len(final.Hist.Records), rounds)
	}
	// The restart continued the crashed run: the first rounds' records are
	// the checkpointed ones, and the post-restart rounds follow them.
	if !reflect.DeepEqual(final.Hist.Records[:dieAfter], crashed.Hist.Records) {
		t.Fatalf("restart rewrote pre-crash history:\ncrashed: %+v\nfinal:   %+v",
			crashed.Hist.Records, final.Hist.Records[:dieAfter])
	}
	if final.Hist.Records[dieAfter].Round != dieAfter+1 {
		t.Fatalf("restart did not resume at round %d: %+v", dieAfter+1, final.Hist.Records[dieAfter])
	}
}

// TestServerStrategiesTCPResumeBitIdentical is the distributed half of the
// strategy acceptance: FedAvgM, FedAdam and FedYogi each run end-to-end
// over real TCP, and a server crashed mid-federation and restarted from its
// checkpoints finishes with exactly the reference run's history, global
// model and server-optimizer state — the moments survive the restart.
func TestServerStrategiesTCPResumeBitIdentical(t *testing.T) {
	const (
		numClients = 2
		rounds     = 4
		dieAfter   = 2
		seed       = int64(1)
	)
	w := testWorld(t, numClients)
	for _, spec := range []string{"fedavgm", "fedadam:lr=0.05", "fedyogi:lr=0.05"} {
		t.Run(spec, func(t *testing.T) {
			args := func(dir string) []string {
				return []string{"-clients", "2", "-rounds", "4", "-epochs", "1", "-seed", "1",
					"-strategy", spec, "-ckpt-dir", dir}
			}

			// Reference: an uninterrupted federation.
			refDir := t.TempDir()
			if err := runFederation(t, w, args(refDir), 0); err != nil {
				t.Fatalf("reference federation: %v", err)
			}
			ref, err := core.LoadLatestRunState(refDir)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Round != rounds || len(ref.Hist.Records) != rounds {
				t.Fatalf("reference checkpoint at round %d with %d records", ref.Round, len(ref.Hist.Records))
			}
			if ref.StratName == "" || len(ref.StratState) == 0 {
				t.Fatalf("reference checkpoint lost the strategy section: %q, %d tensors",
					ref.StratName, len(ref.StratState))
			}
			if ref.Hist.FinalAccuracy <= 0 {
				t.Fatalf("federation produced no accuracy: %+v", ref.Hist)
			}

			// Crash after round 2, then restart from the same directory.
			crashDir := t.TempDir()
			if err := runFederation(t, w, args(crashDir), dieAfter); err == nil {
				t.Fatal("server survived losing every client")
			}
			if err := runFederation(t, w, args(crashDir), 0); err != nil {
				t.Fatalf("restarted federation: %v", err)
			}
			resumed, err := core.LoadLatestRunState(crashDir)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(ref.Hist, resumed.Hist) {
				t.Fatalf("resumed history diverged:\nref:     %+v\nresumed: %+v", ref.Hist, resumed.Hist)
			}
			if len(ref.Model) != len(resumed.Model) {
				t.Fatalf("model tensor count %d vs %d", len(ref.Model), len(resumed.Model))
			}
			for i := range ref.Model {
				if !ref.Model[i].Equal(resumed.Model[i]) {
					t.Fatalf("resumed global model diverged at tensor %d", i)
				}
			}
			if len(ref.StratState) != len(resumed.StratState) {
				t.Fatalf("strategy state count %d vs %d", len(ref.StratState), len(resumed.StratState))
			}
			for i := range ref.StratState {
				if !ref.StratState[i].Equal(resumed.StratState[i]) {
					t.Fatalf("resumed server-optimizer state diverged at tensor %d", i)
				}
			}
		})
	}
}

// TestServerStrategyWarmStartRefusesEditedStrategy: a checkpoint written
// under one strategy must not warm-start a server configured with another.
func TestServerStrategyWarmStartRefusesEditedStrategy(t *testing.T) {
	w := testWorld(t, 2)
	dir := t.TempDir()
	args := []string{"-clients", "2", "-rounds", "2", "-epochs", "1", "-seed", "1",
		"-strategy", "fedadam:lr=0.05", "-ckpt-dir", dir}
	if err := runFederation(t, w, args, 0); err != nil {
		t.Fatalf("federation: %v", err)
	}

	for _, edited := range []string{"fedadam:lr=0.1", "fedavg"} {
		if !warmStartRefused(t, w, []string{"-clients", "2", "-rounds", "2", "-epochs", "1", "-seed", "1",
			"-strategy", edited, "-ckpt-dir", dir}) {
			t.Fatalf("warm-start under edited strategy %q accepted", edited)
		}
	}
}

// TestParseFlagsQuorumAbsolute pins the -quorum dual reading: values in
// (0, 1] stay fractional, integer values above 1 become an absolute update
// count, and an absolute quorum no round could ever meet is rejected at
// startup rather than discovered as an eternal ErrQuorum at round 1.
func TestParseFlagsQuorumAbsolute(t *testing.T) {
	cfg, err := parseFlags([]string{"-clients", "4", "-quorum", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Quorum != 3 {
		t.Fatalf("absolute quorum %v, want 3", cfg.Quorum)
	}
	// The absolute count enters the config tag, so a checkpoint cannot be
	// silently continued under an edited quorum mode.
	base, err := parseFlags([]string{"-clients", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ConfigTag() == base.ConfigTag() {
		t.Fatal("absolute quorum does not change the config tag")
	}

	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-clients", "4", "-quorum", "2.5"}, "integers"},
		{[]string{"-clients", "2", "-quorum", "3"}, "no round could ever succeed"},
		{[]string{"-clients", "8", "-cohort", "2", "-quorum", "3"}, "no round could ever succeed"},
	} {
		if _, err := parseFlags(tt.args); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Fatalf("args %v: err %v, want mention of %q", tt.args, err, tt.want)
		}
	}
}

// TestParseFlagsTiers pins the tier flags: -tiers alone uses the default
// distribution, -tier-dist implies -tiers, bad specs fail fast, and the
// distribution enters the config tag (the resume refusal).
func TestParseFlagsTiers(t *testing.T) {
	cfg, err := parseFlags([]string{"-tiers"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Run.TierDist == nil || cfg.Run.TierDist.String() != "full:1,low:1,mid:2" {
		t.Fatalf("default tier distribution: %+v", cfg.Run.TierDist)
	}
	implied, err := parseFlags([]string{"-tier-dist", "low:1,full:1"})
	if err != nil {
		t.Fatal(err)
	}
	if !implied.tiers || implied.Run.TierSpec() != "full:1,low:1" {
		t.Fatalf("-tier-dist did not imply tiers: %+v", implied)
	}
	base, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Run.TierDist != nil || base.Run.TierSpec() != "" {
		t.Fatalf("tiers must default off: %+v", base)
	}
	if cfg.ConfigTag() == base.ConfigTag() || cfg.ConfigTag() == implied.ConfigTag() {
		t.Fatal("tier distributions do not separate config tags")
	}
	for _, bad := range []string{"low:0", "quantum:1", "low:-1", ","} {
		if _, err := parseFlags([]string{"-tier-dist", bad}); err == nil {
			t.Fatalf("tier distribution %q accepted", bad)
		}
	}
}

// TestServerTieredTCPEndToEnd runs a heterogeneous federation over real TCP:
// a low-tier and a full-tier client train under their masks, the server
// aggregates per layer with the tier scheduling policy available, and the
// checkpoint records the tier spec — which then refuses warm-starts under an
// edited or removed distribution.
func TestServerTieredTCPEndToEnd(t *testing.T) {
	const rounds = 2
	w := testWorld(t, 2)
	dir := t.TempDir()
	args := []string{"-clients", "2", "-rounds", "2", "-epochs", "1", "-seed", "1",
		"-tier-dist", "low:1,full:1", "-ckpt-dir", dir}
	if err := runFederation(t, w, args, 0); err != nil {
		t.Fatalf("tiered federation: %v", err)
	}
	snap, err := core.LoadLatestRunState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != rounds || len(snap.Hist.Records) != rounds {
		t.Fatalf("checkpoint at round %d with %d records", snap.Round, len(snap.Hist.Records))
	}
	if snap.TierSpec != "full:1,low:1" {
		t.Fatalf("checkpoint tier spec %q, want \"full:1,low:1\"", snap.TierSpec)
	}
	if snap.Hist.FinalAccuracy <= 0 {
		t.Fatalf("federation produced no accuracy: %+v", snap.Hist)
	}

	// Warm-start refusal: an edited or dropped tier distribution must not
	// silently continue this checkpoint.
	for _, edited := range [][]string{
		{"-tier-dist", "full:1"},
		{"-tier-dist", "low:1,full:2"},
		nil,
	} {
		if !warmStartRefused(t, w, append([]string{"-clients", "2", "-rounds", "4", "-epochs", "1",
			"-seed", "1", "-ckpt-dir", dir}, edited...)) {
			t.Fatalf("warm-start under edited tier distribution %v accepted", edited)
		}
	}
}

// TestParseFlagsAsyncAndRelays pins the hierarchical and buffered-async flag
// surface: the accepted shapes, the mutual exclusions (each with an
// actionable message), and the config-tag separation that keeps checkpoints
// from crossing the flat/relay or sync/async boundary. A buffer is bounded by
// the peers a round can contact: the relay regions when -relays is set.
func TestParseFlagsAsyncAndRelays(t *testing.T) {
	async, err := parseFlags([]string{"-clients", "4", "-buffer", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if async.Run.Async.Buffer != 2 || async.Run.Async.Weigher == nil || async.Run.Async.Weigher.Name() != "invsqrt" {
		t.Fatalf("async defaults: buffer %d, weigher %+v", async.Run.Async.Buffer, async.Run.Async.Weigher)
	}
	if async.Run.Async.MaxStaleness != -1 {
		t.Fatalf("max staleness default %d, want -1 (keep all)", async.Run.Async.MaxStaleness)
	}
	identity, err := parseFlags([]string{"-clients", "4", "-buffer", "2", "-staleness", "identity"})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := parseFlags([]string{"-clients", "4", "-buffer", "2", "-max-staleness", "3"})
	if err != nil {
		t.Fatal(err)
	}
	relay, err := parseFlags([]string{"-clients", "4", "-relays", "2"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := parseFlags([]string{"-clients", "4"})
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]uint64{
		"base":     base.ConfigTag(),
		"async":    async.ConfigTag(),
		"identity": identity.ConfigTag(),
		"capped":   capped.ConfigTag(),
		"relay":    relay.ConfigTag(),
	}
	seen := make(map[uint64]string, len(tags))
	for name, tag := range tags {
		if prev, dup := seen[tag]; dup {
			t.Fatalf("configs %q and %q share a config tag", prev, name)
		}
		seen[tag] = name
	}

	for _, tt := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"negative buffer", []string{"-buffer", "-1"}, "-buffer"},
		{"negative relays", []string{"-relays", "-1"}, "-relays"},
		{"buffer beyond clients", []string{"-clients", "2", "-buffer", "3"}, "could never fill"},
		{"buffer beyond relays", []string{"-clients", "4", "-relays", "2", "-buffer", "3"}, "could never fill"},
		{"buffer with cohort", []string{"-clients", "4", "-buffer", "2", "-cohort", "2"}, "drop -cohort or -buffer"},
		{"buffer with absolute quorum", []string{"-clients", "4", "-buffer", "2", "-quorum", "3"}, "mutually exclusive"},
		{"buffer with fractional quorum", []string{"-clients", "4", "-buffer", "2", "-quorum", "0.5"}, "drop -quorum or -buffer"},
		{"max-staleness without buffer", []string{"-max-staleness", "2"}, "needs -buffer"},
		{"staleness without buffer", []string{"-staleness", "identity"}, "needs -buffer"},
		{"unknown staleness", []string{"-clients", "4", "-buffer", "2", "-staleness", "bogus"}, "-staleness"},
		{"relays beyond clients", []string{"-clients", "2", "-relays", "5"}, "-relays"},
		{"cohort beyond relays", []string{"-clients", "8", "-relays", "2", "-cohort", "3"}, "-cohort"},
	} {
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

// TestServerAsyncTCPFullBufferMatchesSync is the async equivalence gate: a
// buffered run with -buffer equal to the federation size and the identity
// staleness weigher must reproduce the synchronous server byte for byte —
// identical History and identical final global model. The buffered engine is
// the synchronous round loop plus a lambda multiplication by exactly 1.0,
// which is a float no-op; any divergence is an arithmetic leak in the async
// path.
func TestServerAsyncTCPFullBufferMatchesSync(t *testing.T) {
	w := testWorld(t, 2)
	base := []string{"-clients", "2", "-rounds", "3", "-epochs", "1", "-seed", "1"}

	refDir := t.TempDir()
	syncArgs := append(append([]string{}, base...), "-ckpt-dir", refDir)
	if err := runFederation(t, w, syncArgs, 0); err != nil {
		t.Fatalf("sync federation: %v", err)
	}
	asyncDir := t.TempDir()
	asyncArgs := append(append([]string{}, base...),
		"-buffer", "2", "-staleness", "identity", "-ckpt-dir", asyncDir)
	if err := runFederation(t, w, asyncArgs, 0); err != nil {
		t.Fatalf("async federation: %v", err)
	}

	ref, err := core.LoadLatestRunState(refDir)
	if err != nil {
		t.Fatal(err)
	}
	asy, err := core.LoadLatestRunState(asyncDir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Hist, asy.Hist) {
		t.Fatalf("async history diverged from sync:\nsync:  %+v\nasync: %+v", ref.Hist, asy.Hist)
	}
	if len(ref.Model) != len(asy.Model) {
		t.Fatalf("model tensor count %d vs %d", len(ref.Model), len(asy.Model))
	}
	for i := range ref.Model {
		if !ref.Model[i].Equal(asy.Model[i]) {
			t.Fatalf("async global model diverged from sync at tensor %d", i)
		}
	}
	// The async checkpoint carries the engine state; the sync one must not.
	if ref.Async != nil {
		t.Fatalf("sync checkpoint grew an async section: %+v", ref.Async)
	}
	if asy.Async == nil || asy.Async.Version != 3 || len(asy.Async.Buffer) != 0 {
		t.Fatalf("async checkpoint state: %+v", asy.Async)
	}
}

// startRegion launches one region of a hierarchical federation over real
// TCP: a relay (the in-process twin of cmd/fedrelay) plus its single leaf
// client. The returned stop severs the relay's root connection and leaf
// listener, simulating a relay-process crash.
func startRegion(t *testing.T, w *experiments.World, cfg serverConfig, rootAddr string, relayID int) (stop func(), relayDone, leafDone chan error) {
	t.Helper()
	leafL, err := comm.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootConn, err := comm.DialTCPRetry(rootAddr, 10*time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	relayDone = make(chan error, 1)
	leafDone = make(chan error, 1)
	go func() {
		relayDone <- federation.Relay(rootConn, leafL, federation.RelayConfig{
			RelayID: relayID, Leaves: 1, Rounds: cfg.Run.Rounds,
			Engine: comm.EngineConfig{Quorum: 1},
		})
	}()
	go func() {
		conn, err := comm.DialTCP(leafL.Addr(), 10*time.Second)
		if err != nil {
			leafDone <- err
			return
		}
		leafDone <- testClient(w, conn, relayID, cfg, 0)
	}()
	return func() { _ = rootConn.Close(); _ = leafL.Close() }, relayDone, leafDone
}

// TestServerHierarchicalTCPCrashRejoin is the hierarchy's end-to-end
// acceptance: a root fedserver plus two relay regions train over real TCP;
// one relay crashes mid-run, the root finishes the affected rounds on the
// surviving region (-quorum 0.5), the restarted relay re-registers through
// the background admitter and participates again by the final round. The
// checkpoint then refuses a flat warm-start.
func TestServerHierarchicalTCPCrashRejoin(t *testing.T) {
	const (
		relays = 2 // one leaf each
		rounds = 8 // enough runway for crash, degraded rounds, and rejoin
	)
	w := testWorld(t, 2)
	dir := t.TempDir()
	rootL, err := comm.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootL.Close()
	// Rounds must dwarf the region-restart latency (rebuild the leaf's data
	// partition plus two handshakes, ~100ms) or the federation finishes
	// before the crashed region can rejoin: 10 local epochs stretch each
	// round to a multiple of that, leaving the rejoin several rounds of
	// headroom.
	cfg, err := parseFlags([]string{"-clients", "2", "-relays", "2", "-rounds", "8",
		"-epochs", "10", "-seed", "1", "-quorum", "0.5", "-ckpt-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	global, err := w.Global.Clone()
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() {
		_, err := federation.Serve(cfg.Config, rootL, global, w.Test)
		serveErr <- err
	}()

	_, relay0Done, leaf0Done := startRegion(t, w, cfg, rootL.Addr(), 0)
	stop1, relay1Done, leaf1Done := startRegion(t, w, cfg, rootL.Addr(), 1)

	// Let at least one full round land on disk, then crash region 1.
	waitForCheckpoint := func(what string, ok func(*core.RunState) bool) {
		t.Helper()
		waitDeadline := time.Now().Add(2 * time.Minute)
		for {
			if snap, err := core.LoadLatestRunState(dir); err == nil && ok(snap) {
				return
			}
			if time.Now().After(waitDeadline) {
				t.Fatalf("no %s appeared within 2 minutes", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitForCheckpoint("checkpoint", func(snap *core.RunState) bool { return snap.Round >= 1 })
	stop1()
	if err := <-relay1Done; err == nil {
		t.Fatal("relay 1 survived losing its root connection")
	}
	<-leaf1Done // the relay shut its region down; error class irrelevant

	// Restart the region at once: same relay ID, fresh connections, fresh
	// leaf. The root only learns of the crash inside a round, so the new
	// registration may arrive while the dead connection still holds the ID;
	// the admitter parks it and admits it at the first round boundary after
	// the degraded round that drops the old one.
	_, relay1Redone, leaf1Redone := startRegion(t, w, cfg, rootL.Addr(), 1)

	if err := <-serveErr; err != nil {
		t.Fatalf("root failed: %v", err)
	}
	for _, done := range []chan error{relay0Done, relay1Redone} {
		if err := <-done; err != nil {
			t.Fatalf("relay exited with %v", err)
		}
	}
	for _, done := range []chan error{leaf0Done, leaf1Redone} {
		if err := <-done; err != nil {
			t.Fatalf("leaf exited with %v", err)
		}
	}

	final, err := core.LoadLatestRunState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != rounds || len(final.Hist.Records) != rounds {
		t.Fatalf("final checkpoint at round %d with %d records", final.Round, len(final.Hist.Records))
	}
	degraded := 0
	for _, rec := range final.Hist.Records {
		if rec.Participants < 1 {
			t.Fatalf("round %d completed with %d regions", rec.Round, rec.Participants)
		}
		if rec.Participants < relays {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no round ran degraded; the relay crash never bit")
	}
	if last := final.Hist.Records[rounds-1]; last.Participants != relays {
		t.Fatalf("final round saw %d regions; the crashed relay never rejoined", last.Participants)
	}
	if final.Hist.FinalAccuracy <= 0 {
		t.Fatalf("federation produced no accuracy: %+v", final.Hist)
	}

	// A relay checkpoint must not warm-start a flat server (and vice versa).
	if !warmStartRefused(t, w, []string{"-clients", "2", "-rounds", "8", "-epochs", "10",
		"-seed", "1", "-quorum", "0.5", "-ckpt-dir", dir}) {
		t.Fatal("flat server warm-started a hierarchical checkpoint")
	}
}

// TestServerAsyncWarmStartMidBuffer covers the async checkpoint round trip
// under the hardest shape: a checkpoint whose buffer holds an update that
// arrived but was never aggregated. The restarted server folds the restored
// update — staleness re-measured against the restored version — before any
// live arrival, finishes the remaining aggregations, and leaves a clean
// final state.
func TestServerAsyncWarmStartMidBuffer(t *testing.T) {
	const (
		numClients = 2
		rounds     = 4
		dieAfter   = 2
	)
	w := testWorld(t, numClients)
	dir := t.TempDir()
	args := []string{"-clients", "2", "-rounds", "4", "-epochs", "1", "-seed", "1",
		"-buffer", "2", "-ckpt-dir", dir}

	// Phase 1: every client vanishes after aggregation 2; the server dies
	// with aggregations 1–2 checkpointed.
	if err := runFederation(t, w, args, dieAfter); err == nil {
		t.Fatal("async server survived losing every client")
	}
	snap, err := core.LoadLatestRunState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Async == nil || snap.Async.Version != dieAfter {
		t.Fatalf("crashed checkpoint async state: %+v", snap.Async)
	}

	// Graft a mid-buffer update into the checkpoint: a version-1 state that
	// had arrived but was not yet aggregated when the snapshot was taken
	// (the live engine checkpoints at aggregation boundaries, so a non-empty
	// buffer only occurs through the restore path — construct it directly).
	graft, err := w.Global.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := graft.SetFinetunePart(models.FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	stateTs, err := graft.GroupStateTensors(graft.TrainableGroupNames())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := comm.EncodeTensors(stateTs)
	if err != nil {
		t.Fatal(err)
	}
	snap.Async.Buffer = []comm.ClientUpdate{{
		ClientID: 0, Round: dieAfter, Version: dieAfter - 1, State: blob,
		NumSelected: 10, TrainSeconds: 0.5, TrainLoss: 1.0, MeanEntropy: math.NaN(),
	}}
	if err := core.SaveRunState(ckpt.Path(dir, snap.Round), snap); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a restarted server restores version 2 plus the buffered
	// update and finishes aggregations 3–4 with fresh clients.
	if err := runFederation(t, w, args, 0); err != nil {
		t.Fatalf("restarted async server failed: %v", err)
	}
	final, err := core.LoadLatestRunState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != rounds || len(final.Hist.Records) != rounds {
		t.Fatalf("final checkpoint at aggregation %d with %d records", final.Round, len(final.Hist.Records))
	}
	// Aggregation 3 folded the restored update (staleness 1) plus one live
	// arrival: exactly -buffer participants, none discarded.
	resumed := final.Hist.Records[dieAfter]
	if resumed.Round != dieAfter+1 || resumed.Participants != 2 || resumed.CohortSize != 2 {
		t.Fatalf("resumed aggregation record: %+v", resumed)
	}
	if final.Async == nil || final.Async.Version != rounds || len(final.Async.Buffer) != 0 {
		t.Fatalf("final async state: %+v", final.Async)
	}
}

// TestConfigTagPinned pins the checkpoint config tag of every server mode to
// the values the pre-federation fedserver wrote. TagConfig hashes each
// part's Go type and value, so a field-type change in federation.Config
// would silently orphan every server checkpoint in the field; this table is
// what notices.
func TestConfigTagPinned(t *testing.T) {
	for _, tt := range []struct {
		flags string
		want  uint64
	}{
		{"", 0x6d8b02e4f4a37911},
		{"-clients 4 -cohort 2 -sched entropy -quorum 0.5 -round-deadline 90s", 0x463cc0be8e46d213},
		{"-clients 4 -quorum 3", 0x5361fc850ffba9d5},
		{"-clients 4 -strategy fedadam:lr=0.05", 0x3fffb42997b0f2e7},
		{"-clients 4 -tiers", 0xbb197809d7650355},
		{"-clients 6 -relays 2", 0xcbf967d214bcac61},
		{"-clients 4 -buffer 2 -max-staleness 3 -staleness poly:alpha=1", 0x53920a3d831d8c7d},
		{"-clients 4 -codec int8", 0x82f9869c81a9f380},
	} {
		cfg, err := parseFlags(strings.Fields(tt.flags))
		if err != nil {
			t.Fatalf("%q: %v", tt.flags, err)
		}
		if got := cfg.ConfigTag(); got != tt.want {
			t.Errorf("%q: config tag %#x, want %#x", tt.flags, got, tt.want)
		}
	}
}

// TestConfigTagRecipe: the client recipe enters the config tag, so a
// checkpoint is not continued under another one, but only where it departs
// from federation.DefaultRecipe — the pinned tags above are the default's.
func TestConfigTagRecipe(t *testing.T) {
	base, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := parseFlags([]string{"-temperature", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Run.Selector != (selection.Entropy{Temperature: 0.5}) {
		t.Fatalf("-temperature 0.5 selector %#v", hot.Run.Selector)
	}
	if hot.ConfigTag() == base.ConfigTag() {
		t.Fatal("-temperature 0.5 shares the default recipe's config tag")
	}
	tags := map[uint64]string{base.ConfigTag(): "default", hot.ConfigTag(): "-temperature 0.5"}
	for name, edit := range map[string]func(*federation.Config){
		"lr":       func(c *federation.Config) { c.Run.LR = 0.1 },
		"momentum": func(c *federation.Config) { c.Run.Momentum = 0 },
		"part":     func(c *federation.Config) { c.Run.FinetunePart = models.FinetuneFull },
		"selector": func(c *federation.Config) { c.Run.Selector = selection.Random{} },
	} {
		cfg := base.Config
		edit(&cfg)
		if prev, dup := tags[cfg.ConfigTag()]; dup {
			t.Errorf("recipe edit %s shares a config tag with %s", name, prev)
		}
		tags[cfg.ConfigTag()] = name
	}
}

// TestServeModesEndToEnd drives the modes no other test takes through the
// whole server loop — the plain round, a full buffer, quorum under a deadline,
// cohort scheduling, a lossy codec, and the tiered client's covered-subset
// codec reference — over in-process pipes with the real client round: every
// round folds, the history stays finite, and the run ends on the final global
// state and the History recorded at the commit before the two round engines
// were merged (every row folds two updates per round, so arrival order cannot
// move a bit). The constants are the reference; there is no second engine
// left to compare against. A full buffer over tiers must end where its
// synchronous twin does; a partial one folds in arrival order, so it pins
// only the fold count (crc 0).
func TestServeModesEndToEnd(t *testing.T) {
	for _, tt := range []struct {
		flags      string
		numClients int
		folds      int    // updates every round must fold
		lossy      bool   // the codec must shrink the uplink below the downlink
		crc        uint32 // CRC-32C of the final trainable state, recorded at the parent commit
		hist       string // historyDigest of the run, recorded at the parent commit
	}{
		{"-clients 2", 2, 2, false, 0x5190ea46, "50b0a5bf5af5d354"},
		{"-clients 2 -buffer 2 -staleness identity", 2, 2, false, 0x5190ea46, "50b0a5bf5af5d354"},
		{"-clients 2 -quorum 0.5 -round-deadline 30s", 2, 2, false, 0x5190ea46, "50b0a5bf5af5d354"},
		{"-clients 4 -cohort 2 -sched entropy", 4, 2, false, 0x384589a4, "243961c5fa655ec9"},
		{"-clients 2 -codec int8", 2, 2, true, 0xfd57a0de, "ac9a660715c95a5d"},
		{"-clients 2 -tier-dist low:1,full:1 -codec float16", 2, 2, true, 0xa6d589b5, "5ceaa1aebc0a7ad2"},
		// The clients know only -id, -clients and -seed: the proximal μ and the
		// tier distribution reach them in the RoundStart. Before they did, both
		// runs ended on plain FedAvg's bits, the "-clients 2" row's.
		{"-clients 2 -strategy fedprox:mu=0.5", 2, 2, false, 0x4b8335d2, "48fdf2ab034bee3a"},
		{"-clients 2 -tier-dist low:1,full:1", 2, 2, false, 0x50a076ca, "f0fe8862a5c4cbae"},
		{"-clients 2 -buffer 2 -staleness identity -tier-dist low:1,full:1 -codec float16", 2, 2, true, 0xa6d589b5, "5ceaa1aebc0a7ad2"},
		{"-clients 4 -buffer 2 -tier-dist low:1,full:1 -codec float16", 4, 2, true, 0, ""},
	} {
		t.Run(tt.flags, func(t *testing.T) {
			w := testWorld(t, tt.numClients)
			args := append(strings.Fields(tt.flags), "-rounds", "3", "-epochs", "1", "-seed", "1")
			l := comm.NewPipeListener(tt.numClients)
			global, hist, err := federate(t, w, args, l, func(id int) (comm.Conn, error) {
				return l.ClientSide(id), nil
			}, 0)
			if err != nil {
				t.Fatalf("federation: %v", err)
			}
			if len(hist.Records) != 3 {
				t.Fatalf("%d records, want 3", len(hist.Records))
			}
			for _, rec := range hist.Records {
				if rec.Participants != tt.folds || rec.CohortSize != tt.folds {
					t.Errorf("round %d: cohort %d, %d folded, want %d", rec.Round, rec.CohortSize, rec.Participants, tt.folds)
				}
				if math.IsNaN(rec.TestAccuracy) || math.IsInf(rec.MeanTrainLoss, 0) || math.IsNaN(rec.MeanTrainLoss) {
					t.Errorf("round %d: accuracy %v, loss %v", rec.Round, rec.TestAccuracy, rec.MeanTrainLoss)
				}
			}
			if up, down := hist.TotalUplinkBytes, hist.TotalDownlinkBytes; up <= 0 || tt.lossy && up >= down {
				t.Errorf("uplink %d bytes against downlink %d", up, down)
			}
			if tt.crc == 0 {
				return
			}
			stateTs, err := global.GroupStateTensors(global.TrainableGroupNames())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := comm.EncodeTensors(stateTs)
			if err != nil {
				t.Fatal(err)
			}
			if got := crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)); got != tt.crc {
				t.Errorf("final state CRC %08x, parent commit %08x", got, tt.crc)
			}
			if got := historyDigest(hist); got != tt.hist {
				t.Errorf("history digest %s, parent commit %s", got, tt.hist)
			}
		})
	}
}

// TestServeRelayTreeEndToEnd drives relay trees through the real root: Serve
// over pipes, each region a federation.Relay folding two real client rounds
// (the in-process twins of fedrelay and fedclient), 3 rounds at seed 1. The
// rows cover the identity tree, int8 leaves under a float16 upstream, and
// tiered leaves folded per layer at their relay; the last is mixed depth, a
// relay and a plain client side by side at a flat root, both folded by the
// same arithmetic. The constants were recorded at the commit before relays
// answered with ClientUpdates, so the frame's shape changed and nothing it
// computes did. Under a buffer a region is one peer: a full buffer ends where
// the synchronous tree does, and a partial one folds in arrival order, so it
// pins only the fold count; its regions still in flight at the end may find
// the root gone mid-send.
func TestServeRelayTreeEndToEnd(t *testing.T) {
	type peer struct {
		id     int
		leaves []int // nil: a plain client registered at the root itself
	}
	two := []peer{{0, []int{0, 1}}, {1, []int{2, 3}}}
	three := []peer{{0, []int{0, 1}}, {1, []int{2, 3}}, {2, []int{4, 5}}}
	for _, tt := range []struct {
		flags     string
		leafCodec string
		peers     []peer
		crc       uint32 // CRC-32C of the final trainable state, recorded at the parent commit
		hist      string // historyDigest of the run, recorded at the parent commit
	}{
		{"-clients 4 -relays 2", "", two, 0xd8fb1ffb, "e5623259c8dfe36a"},
		{"-clients 4 -relays 2 -codec float16", "int8", two, 0x3c0a2ac6, "f024023f74b8f66a"},
		{"-clients 4 -relays 2 -tier-dist low:1,full:1", "", two, 0x033cf23a, "e8e77cf4a1e22d27"},
		{"-clients 2", "", []peer{{0, []int{0, 1}}, {2, nil}}, 0xa3d10d54, "fdc9dcc7c899fe24"},
		{"-clients 4 -relays 2 -buffer 2 -staleness identity", "", two, 0xd8fb1ffb, "e5623259c8dfe36a"},
		{"-clients 6 -relays 3 -buffer 2", "", three, 0, ""},
	} {
		t.Run(tt.flags, func(t *testing.T) {
			clients := 0
			for _, p := range tt.peers {
				clients += max(len(p.leaves), 1)
			}
			w := testWorld(t, clients)
			cfg, err := parseFlags(append(strings.Fields(tt.flags), "-rounds", "3", "-epochs", "1", "-seed", "1"))
			if err != nil {
				t.Fatal(err)
			}
			global, err := w.Global.Clone()
			if err != nil {
				t.Fatal(err)
			}
			partial := cfg.Run.Async.Buffer > 0 && cfg.Run.Async.Buffer < len(tt.peers)
			var wg sync.WaitGroup
			run := func(what string, f func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f(); err != nil && !partial {
						t.Errorf("%s exited with %v", what, err)
					}
				}()
			}
			l := comm.NewPipeListener(len(tt.peers))
			for slot, p := range tt.peers {
				if p.leaves == nil {
					run("client", func() error { return testClient(w, l.ClientSide(slot), p.id, cfg, 0) })
					continue
				}
				leafL := comm.NewPipeListener(len(p.leaves))
				for i, id := range p.leaves {
					run("leaf", func() error { return testClient(w, leafL.ClientSide(i), id, cfg, 0) })
				}
				run("relay", func() error {
					return federation.Relay(l.ClientSide(slot), leafL, federation.RelayConfig{
						RelayID: p.id, Leaves: len(p.leaves), Rounds: cfg.Run.Rounds,
						Engine: comm.EngineConfig{Quorum: 1}, LeafCodec: tt.leafCodec,
					})
				})
			}
			hist, err := federation.Serve(cfg.Config, l, global, w.Test)
			wg.Wait()
			if err != nil {
				t.Fatalf("federation: %v", err)
			}
			if len(hist.Records) != 3 {
				t.Fatalf("%d records, want 3", len(hist.Records))
			}
			folds := len(tt.peers)
			if cfg.Run.Async.Buffer > 0 {
				folds = cfg.Run.Async.Buffer
			}
			for _, rec := range hist.Records {
				if rec.Participants != folds || rec.CohortSize != folds {
					t.Errorf("round %d: cohort %d, %d folded, want %d", rec.Round, rec.CohortSize, rec.Participants, folds)
				}
			}
			if partial {
				return
			}
			stateTs, err := global.GroupStateTensors(global.TrainableGroupNames())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := comm.EncodeTensors(stateTs)
			if err != nil {
				t.Fatal(err)
			}
			if got := crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)); got != tt.crc {
				t.Errorf("final state CRC %08x, parent commit %08x", got, tt.crc)
			}
			if got := historyDigest(hist); got != tt.hist {
				t.Errorf("history digest %s, parent commit %s", got, tt.hist)
			}
		})
	}
}

// historyDigest hashes every field of a History, floats by their bits.
func historyDigest(h core.History) string {
	d := fnv.New64a()
	bits := math.Float64bits
	for _, r := range h.Records {
		fmt.Fprintf(d, "%d %d %q %d %016x %016x %016x %d\n", r.Round, r.CohortSize, r.SchedPolicy, r.Participants,
			bits(r.TestAccuracy), bits(r.MeanTrainLoss), bits(r.CumTrainSeconds), r.CumUplinkBytes)
	}
	fmt.Fprintf(d, "%016x %016x %016x %d %d", bits(h.BestAccuracy), bits(h.FinalAccuracy), bits(h.TotalTrainSeconds),
		h.TotalUplinkBytes, h.TotalDownlinkBytes)
	return fmt.Sprintf("%016x", d.Sum64())
}
