package federation

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/experiments"
	"fedfteds/internal/models"
	"fedfteds/internal/strategy"
)

// testWorld is the seed-1 four-client world every test here shares.
var testWorld = sync.OnceValues(func() (*experiments.World, error) {
	return experiments.NewWorld(1, 4)
})

// testConfig is a flat synchronous fedavg federation over testWorld.
func testConfig(rounds int) Config {
	return Config{NumClients: 4, Rounds: rounds, Fraction: 0.5, Epochs: 1, Seed: 1,
		Quorum: 1, SchedName: "uniform", Strat: strategy.FedAvg(), MaxStaleness: -1}
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
	c, err := Join(conn, ClientConfig{ID: id, NumClients: 4, Seed: 1, Temperature: 0.1}, model, w.Clients[id])
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

func TestCheckMetadata(t *testing.T) {
	ok := comm.ClientUpdate{NumSelected: 10, TrainSeconds: 0.5, TrainLoss: 1.2, MeanEntropy: 0.7}
	for _, tt := range []struct {
		name   string
		edit   func(*comm.ClientUpdate)
		reject bool
	}{
		{"honest", func(*comm.ClientUpdate) {}, false},
		{"zero seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = 0 }, false},
		{"no entropy signal", func(u *comm.ClientUpdate) { u.MeanEntropy = math.NaN() }, false},
		{"infinite seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = math.Inf(1) }, true},
		{"NaN seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = math.NaN() }, true},
		{"negative seconds", func(u *comm.ClientUpdate) { u.TrainSeconds = -1 }, true},
		{"NaN loss", func(u *comm.ClientUpdate) { u.TrainLoss = math.NaN() }, true},
		{"infinite loss", func(u *comm.ClientUpdate) { u.TrainLoss = math.Inf(-1) }, true},
		{"infinite entropy", func(u *comm.ClientUpdate) { u.MeanEntropy = math.Inf(1) }, true},
	} {
		u := ok
		tt.edit(&u)
		err := checkMetadata(u)
		if (err != nil) != tt.reject {
			t.Errorf("%s: err %v, want rejection %v", tt.name, err, tt.reject)
		}
		if err != nil && !errors.Is(err, comm.ErrProtocol) {
			t.Errorf("%s: %v is not a protocol error", tt.name, err)
		}
	}
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
			if len(hist.Records) != cfg.Rounds {
				t.Fatalf("%d records, want %d", len(hist.Records), cfg.Rounds)
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
		cfg.CkptDir = dir
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
			c.Buffer, c.Weigher = 3, strategy.IdentityStaleness()
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

// TestServeRecordsEndedDispatchesAsCohort pins what a buffered round records
// as its cohort: every dispatch that ended in it — folded, discarded, timed
// out or dropped — so a client that crashes shows up in exactly one record's
// CohortSize and in no record's Participants.
func TestServeRecordsEndedDispatchesAsCohort(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(6)
	cfg.Buffer, cfg.Weigher = 2, strategy.IdentityStaleness()
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
	failed := 0
	for _, rec := range hist.Records {
		if rec.Participants != cfg.Buffer || rec.CohortSize < rec.Participants {
			t.Errorf("round %d: cohort %d, %d folded under buffer %d", rec.Round, rec.CohortSize, rec.Participants, cfg.Buffer)
		}
		failed += rec.CohortSize - rec.Participants
	}
	if failed != 1 {
		t.Errorf("records count %d failed dispatches, want the one crashed client: %+v", failed, hist.Records)
	}
}
