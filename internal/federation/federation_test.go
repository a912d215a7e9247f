package federation

import (
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/experiments"
	"fedfteds/internal/models"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// testWorld is the seed-1 four-client world every test here shares.
var testWorld = sync.OnceValues(func() (*experiments.World, error) {
	return experiments.NewWorld(1, 4)
})

// testConfig is a flat synchronous fedavg federation over testWorld.
func testConfig(rounds int) Config {
	run := DefaultRecipe()
	run.Rounds, run.SelectFraction, run.LocalEpochs, run.Seed, run.Strategy = rounds, 0.5, 1, 1, strategy.FedAvg()
	run.Async.MaxStaleness = -1
	return Config{Run: run, NumClients: 4, Quorum: 1, SchedName: "uniform"}
}

// honest runs the real client round for id on conn; with dieAfter > 0 it
// crashes on the first RoundStart past that round.
func honest(w *experiments.World, conn comm.Conn, id, dieAfter int) error {
	return honestWith(w, conn, id, func(rs comm.RoundStart) error {
		if dieAfter > 0 && rs.Round > dieAfter {
			return errors.New("crash")
		}
		return nil
	})
}

// honestWith runs the real client round for id on conn under a before hook.
func honestWith(w *experiments.World, conn comm.Conn, id int, before func(comm.RoundStart) error) error {
	model, err := w.Global.Clone()
	if err != nil {
		return err
	}
	c, err := Join(conn, ClientConfig{ID: id, NumClients: 4, Seed: 1}, model, w.Clients[id])
	if err != nil {
		return err
	}
	return c.Run(before, nil)
}

// servePipes runs cfg over in-process pipes against one client function per
// ID and returns Serve's results, trained model included, once every client
// has exited.
func servePipes(t *testing.T, w *experiments.World, cfg Config, client func(conn comm.Conn, id int) error) (core.History, *models.Model, error) {
	t.Helper()
	global, err := w.Global.Clone()
	if err != nil {
		t.Fatal(err)
	}
	l := comm.NewPipeListener(cfg.NumClients)
	var wg sync.WaitGroup
	for id := 0; id < cfg.NumClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := client(l.ClientSide(id), id); err != nil {
				t.Logf("client %d: %v", id, err)
			}
		}(id)
	}
	hist, err := Serve(cfg, l, global, w.Test)
	wg.Wait()
	return hist, global, err
}

// honestMetadata is an update whose self-reported numbers the fold accepts.
var honestMetadata = comm.ClientUpdate{NumSelected: 10, TrainSeconds: 0.5, TrainLoss: 1.2, MeanEntropy: 0.7}

// metadataCases edit honestMetadata; reject marks the edits the fold must
// refuse. They copy internal/comm's table, which pins the check itself in
// StreamAggregator.Add; TestRelayTreeDropsLyingLeaf runs the refused ones
// through a relay tree.
var metadataCases = []struct {
	name   string
	edit   func(*comm.ClientUpdate)
	reject bool
}{
	{"honest", func(*comm.ClientUpdate) {}, false},
	{"zero seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = 0 }, false},
	{"no entropy signal", func(u *comm.ClientUpdate) { u.MeanEntropy = math.NaN() }, false},
	{"zero selected", func(u *comm.ClientUpdate) { u.NumSelected = 0 }, true},
	{"infinite seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = math.Inf(1) }, true},
	{"NaN seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = math.NaN() }, true},
	{"negative seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = -1 }, true},
	{"NaN loss", func(u *comm.ClientUpdate) { u.TrainLoss = math.NaN() }, true},
	{"infinite loss", func(u *comm.ClientUpdate) { u.TrainLoss = math.Inf(-1) }, true},
	{"infinite entropy", func(u *comm.ClientUpdate) { u.MeanEntropy = math.Inf(1) }, true},
}

// TestServeRefusesRecipeItCannotSend: a RoundStart carries no batch size, so
// a Run asking for other than the clients' default is refused before Serve
// listens, instead of being served at the defaults; so
// is every run Config.Validate refuses, the nil listener, model and test set
// proving that Serve touches none of them first.
func TestServeRefusesRecipeItCannotSend(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"batch size 8":         func(c *Config) { c.Run.BatchSize = 8 },
		"int8 under a buffer":  func(c *Config) { c.Run.Codec, c.Run.Async.Buffer = "int8", 2 },
		"cohort with a buffer": func(c *Config) { c.Run.CohortSize, c.Run.Async.Buffer = 2, 2 },
		"quorum 3 of 2":        func(c *Config) { c.NumClients, c.Quorum = 2, 3 },
		"relays above clients": func(c *Config) { c.Relays = 5 },
		"buffer above peers":   func(c *Config) { c.Run.Async.Buffer = 5 },
		"straggler policy":     func(c *Config) { c.Run.Straggler = simtime.FractionParticipation{Fraction: 0.5} },
		"eval every 2 rounds":  func(c *Config) { c.Run.EvalEvery = 2 },
		"checkpoint every 2":   func(c *Config) { c.Run.CheckpointEvery = 2 },
	} {
		cfg := testConfig(1)
		mutate(&cfg)
		if _, err := Serve(cfg, nil, nil, nil); err == nil {
			t.Errorf("%s: Serve accepted a run it cannot serve", name)
		}
	}
}

// TestServeDefaultsLikeTheRunner: where core.Config documents a default for
// a nil plug-in, Serve applies it too. A buffer without a staleness weigher
// folds at identity (and tags as identity), and a cohort without a
// scheduler samples uniformly.
func TestServeDefaultsLikeTheRunner(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	client := func(conn comm.Conn, id int) error { return honest(w, conn, id, 0) }
	t.Run("nil weigher", func(t *testing.T) {
		cfg := testConfig(3)
		cfg.Run.Async.Buffer = 2
		identity := cfg
		identity.Run.Async.Weigher = strategy.IdentityStaleness()
		if cfg.ConfigTag() != identity.ConfigTag() {
			t.Error("a nil weigher does not tag as identity")
		}
		hist, _, err := servePipes(t, w, cfg, client)
		if err != nil || len(hist.Records) != 3 {
			t.Fatalf("err %v after %d records, want 3 rounds", err, len(hist.Records))
		}
	})
	t.Run("nil scheduler", func(t *testing.T) {
		cfg := testConfig(3)
		cfg.Run.CohortSize = 2
		hist, _, err := servePipes(t, w, cfg, client)
		if err != nil || len(hist.Records) != 3 {
			t.Fatalf("err %v after %d records, want 3 rounds", err, len(hist.Records))
		}
		for _, rec := range hist.Records {
			if rec.CohortSize != 2 || rec.SchedPolicy != "uniform" {
				t.Errorf("round %d: cohort %d under policy %q, want 2 under uniform", rec.Round, rec.CohortSize, rec.SchedPolicy)
			}
		}
	})
}

// TestServeDropsLyingClient: one client among four answers every round with
// an update that is well formed but hostile — lying metadata around an honest
// state, or honest metadata around a state with one Inf weight in it. The
// fold rejects the update as that client's failure, atomically, so at quorum
// 0.5 the rounds complete on the three honest clients and nothing non-finite
// reaches the history or the model.
func TestServeDropsLyingClient(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	const liar = 2
	for _, tt := range []struct {
		name string
		lie  func(rs comm.RoundStart) (comm.ClientUpdate, error)
	}{
		// The broadcast echoed back is a valid state; only the numbers lie.
		{"metadata", func(rs comm.RoundStart) (comm.ClientUpdate, error) {
			return comm.ClientUpdate{State: rs.State, NumSelected: 1000,
				TrainSeconds: math.Inf(1), TrainLoss: math.NaN(), MeanEntropy: math.Inf(1)}, nil
		}},
		{"one Inf weight", func(rs comm.RoundStart) (comm.ClientUpdate, error) {
			ts, err := comm.DecodeTensors(rs.State)
			if err != nil {
				return comm.ClientUpdate{}, err
			}
			last := ts[len(ts)-1].Data()
			last[len(last)-1] = float32(math.Inf(-1))
			blob, err := comm.EncodeTensors(ts)
			return comm.ClientUpdate{State: blob, NumSelected: 10, TrainSeconds: 0.5, TrainLoss: 1}, err
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(3)
			cfg.Quorum = 0.5
			hist, global, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error {
				if id != liar {
					return honest(w, conn, id, 0)
				}
				sess, _, err := comm.Join(conn, id, w.Clients[id].Data.Len())
				if err != nil {
					return err
				}
				for {
					rs, ok, err := sess.NextRound()
					if err != nil || !ok {
						return err
					}
					u, err := tt.lie(rs)
					if err != nil {
						return err
					}
					u.ClientID, u.Round = id, rs.Round
					if err := sess.SendUpdate(u); err != nil {
						return err
					}
				}
			})
			if err != nil {
				t.Fatalf("federation with one liar failed: %v", err)
			}
			if len(hist.Records) != cfg.Run.Rounds {
				t.Fatalf("%d records, want %d", len(hist.Records), cfg.Run.Rounds)
			}
			for _, rec := range hist.Records {
				if rec.Participants != 3 {
					t.Errorf("round %d folded %d updates, want the 3 honest ones", rec.Round, rec.Participants)
				}
				for name, v := range map[string]float64{"accuracy": rec.TestAccuracy, "loss": rec.MeanTrainLoss, "seconds": rec.CumTrainSeconds} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("round %d: %s is %v", rec.Round, name, v)
					}
				}
			}
			if math.IsInf(hist.TotalTrainSeconds, 0) || math.IsNaN(hist.TotalTrainSeconds) || hist.TotalTrainSeconds <= 0 {
				t.Errorf("total train seconds %v", hist.TotalTrainSeconds)
			}
			for i, ts := range global.StateTensors() {
				if !ts.IsFinite() {
					t.Errorf("state tensor %d of the trained model holds NaN or Inf", i)
				}
			}
		})
	}
}

// TestServeAccountsTraffic: a distributed run's History carries the traffic
// and compute totals its simulated twin would, and they live in the
// checkpoint — a server crashed after round 2 and resumed ends with exactly
// the totals of an uninterrupted one.
func TestServeAccountsTraffic(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	run := func(dir string, dieAfter int) (core.History, error) {
		cfg := testConfig(4)
		cfg.Run.CheckpointDir = dir
		hist, _, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error { return honest(w, conn, id, dieAfter) })
		return hist, err
	}
	ref, err := run(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("uninterrupted federation: %v", err)
	}
	crashDir := t.TempDir()
	if _, err := run(crashDir, 2); err == nil {
		t.Fatal("server survived losing every client")
	}
	resumed, err := run(crashDir, 0)
	if err != nil {
		t.Fatalf("resumed federation: %v", err)
	}

	if ref.TotalUplinkBytes <= 0 || ref.TotalDownlinkBytes <= 0 || ref.TotalTrainSeconds <= 0 {
		t.Fatalf("uninterrupted totals: %d up, %d down, %v s", ref.TotalUplinkBytes, ref.TotalDownlinkBytes, ref.TotalTrainSeconds)
	}
	if ref.TotalUplinkBytes != resumed.TotalUplinkBytes || ref.TotalDownlinkBytes != resumed.TotalDownlinkBytes {
		t.Fatalf("resumed traffic %d up / %d down, uninterrupted %d / %d",
			resumed.TotalUplinkBytes, resumed.TotalDownlinkBytes, ref.TotalUplinkBytes, ref.TotalDownlinkBytes)
	}
	// Identity frames: every client ships the state it was sent.
	if ref.TotalUplinkBytes != ref.TotalDownlinkBytes {
		t.Fatalf("identity uplink %d differs from downlink %d", ref.TotalUplinkBytes, ref.TotalDownlinkBytes)
	}
	last := ref.Records[len(ref.Records)-1]
	if last.CumUplinkBytes != ref.TotalUplinkBytes || last.CumTrainSeconds != ref.TotalTrainSeconds {
		t.Fatalf("last record %+v disagrees with totals %d / %v", last, ref.TotalUplinkBytes, ref.TotalTrainSeconds)
	}
	if math.Abs(ref.TotalTrainSeconds-resumed.TotalTrainSeconds) > 1e-9*ref.TotalTrainSeconds {
		t.Fatalf("resumed train seconds %v, uninterrupted %v", resumed.TotalTrainSeconds, ref.TotalTrainSeconds)
	}
}

// TestServeCreatesCheckpointDir: Serve creates Run.CheckpointDir before any
// client joins — a nested, missing one included — instead of training a
// round and failing to save it.
func TestServeCreatesCheckpointDir(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ name, sub string }{
		{"existing", ""},
		{"nested, missing", filepath.Join("not", "yet")},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.Run.CheckpointDir = filepath.Join(t.TempDir(), tt.sub)
			hist, _, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error { return honest(w, conn, id, 0) })
			if err != nil {
				t.Fatalf("federation: %v", err)
			}
			snap, err := core.LoadLatestRunState(cfg.Run.CheckpointDir)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Round != 2 || len(hist.Records) != 2 {
				t.Fatalf("checkpoint at round %d, %d records; want 2 and 2", snap.Round, len(hist.Records))
			}
		})
	}
}

// TestNothingOutlivesServe: the engine's flights persist across rounds, so
// Serve's return is where a goroutine could be left behind. After it returns
// and every client has exited, the goroutine count settles back to what it
// was before — with a client still in flight under a buffer, after a client
// timed out of a synchronous round, and after a run that ended in ErrQuorum.
func TestNothingOutlivesServe(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name    string
		edit    func(*Config)
		before  func(id int, rs comm.RoundStart, served <-chan struct{}) error
		wantErr error
	}{
		{"buffered run ends with a client in flight", func(c *Config) {
			c.Run.Async.Buffer, c.Run.Async.Weigher = 3, strategy.IdentityStaleness()
		}, func(id int, rs comm.RoundStart, served <-chan struct{}) error {
			if id == 3 {
				<-served // never answers while the server runs
			}
			return nil
		}, nil},
		{"synchronous run with a timed-out client", func(c *Config) {
			c.Quorum, c.RoundDeadline = 0.5, 100*time.Millisecond
		}, func(id int, rs comm.RoundStart, served <-chan struct{}) error {
			if id == 3 && rs.Round == 1 {
				time.Sleep(300 * time.Millisecond)
			}
			return nil
		}, nil},
		{"run ends in ErrQuorum", func(*Config) {}, func(id int, rs comm.RoundStart, served <-chan struct{}) error {
			if id == 3 && rs.Round == 2 {
				return errors.New("crash")
			}
			return nil
		}, comm.ErrQuorum},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(3)
			tt.edit(&cfg)
			baseline := runtime.NumGoroutine()
			served := make(chan struct{})
			global, err := w.Global.Clone()
			if err != nil {
				t.Fatal(err)
			}
			l := comm.NewPipeListener(cfg.NumClients)
			var wg sync.WaitGroup
			for id := 0; id < cfg.NumClients; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					// A client the server gave up on ends on a closed connection.
					_ = honestWith(w, l.ClientSide(id), id, func(rs comm.RoundStart) error { return tt.before(id, rs, served) })
				}(id)
			}
			_, err = Serve(cfg, l, global, w.Test)
			close(served)
			wg.Wait()
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Serve returned %v, want %v", err, tt.wantErr)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Serve, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestServeRecordsEndedDispatchesAsCohort pins what a round records as its
// cohort: every dispatch that ended in it — folded, discarded, timed out or
// dropped — so a client that crashes after round 1 shows up in exactly one
// record's CohortSize and in no record's Participants. Under a buffer every
// record folds the buffer's worth; a synchronous round under quorum 0.5 loses
// the crashed client and the run still completes every round.
func TestServeRecordsEndedDispatchesAsCohort(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name   string
		edit   func(*Config)
		folded func(rec core.RoundRecord) bool
	}{
		{"buffered", func(c *Config) {
			c.Run.Async.Buffer, c.Run.Async.Weigher = 2, strategy.IdentityStaleness()
		}, func(rec core.RoundRecord) bool { return rec.Participants == 2 }},
		{"synchronous under quorum 0.5", func(c *Config) { c.Quorum = 0.5 },
			func(rec core.RoundRecord) bool { return rec.Participants >= 2 }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(6)
			tt.edit(&cfg)
			hist, _, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error {
				dieAfter := 0
				if id == 3 {
					dieAfter = 1
				}
				return honest(w, conn, id, dieAfter)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(hist.Records) != cfg.Run.Rounds {
				t.Fatalf("%d rounds recorded, want %d", len(hist.Records), cfg.Run.Rounds)
			}
			failed := 0
			for _, rec := range hist.Records {
				if !tt.folded(rec) || rec.CohortSize < rec.Participants {
					t.Errorf("round %d: cohort %d, %d folded", rec.Round, rec.CohortSize, rec.Participants)
				}
				failed += rec.CohortSize - rec.Participants
			}
			if failed != 1 {
				t.Errorf("records count %d failed dispatches, want the one crashed client: %+v", failed, hist.Records)
			}
		})
	}
}
