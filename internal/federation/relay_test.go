package federation

import (
	"errors"
	"hash/crc32"
	"math"
	"sync"
	"testing"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/experiments"
	"fedfteds/internal/tensor"
)

// dyadicTensors builds deterministic tensors whose values are multiples of
// 1/16 in [-4, 4). With power-of-two aggregation weights every multiply,
// add and divide in the float32 aggregation pipeline is exact, so the
// tree-vs-flat comparison below can demand bit identity instead of a
// tolerance: the two topologies associate the additions differently, which
// only matters once rounding enters.
func dyadicTensors(seed int64, shapes [][]int) []*tensor.Tensor {
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float32 {
		state = state*2862933555777941757 + 3037000493
		return float32(int64(state>>40)%128-64) / 16
	}
	out := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		out[i] = tensor.New(s...)
		d := out[i].Data()
		for j := range d {
			d[j] = next()
		}
	}
	return out
}

var (
	testGroups = []string{"low", "up"}
	testLayout = []string{"low", "low", "up"}
	testShapes = [][]int{{2, 3}, {4}, {2}}
)

// leafUpdate is the crafted ClientUpdate leaf id would send: a full-layout
// dyadic state declaring every broadcast group, weight 16.
func leafUpdate(id, round, version int) comm.ClientUpdate {
	blob, err := comm.EncodeTensors(dyadicTensors(int64(id+1), testShapes))
	if err != nil {
		panic(err)
	}
	entropy := math.NaN()
	if id%2 == 0 {
		entropy = 1 + float64(id)
	}
	return comm.ClientUpdate{
		ClientID: id, Round: round, Version: version, State: blob,
		Groups: testGroups, NumSelected: 16, TrainSeconds: 0.25 * float64(id+1),
		TrainLoss: 0.5 * float64(id+1), MeanEntropy: entropy,
	}
}

// runLeaf joins a region and answers every round with its crafted update.
func runLeaf(conn comm.Conn, id int) {
	sess, _, err := comm.Join(conn, id, 10+id)
	if err != nil {
		return
	}
	for {
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			_ = sess.Close()
			return
		}
		_ = sess.SendUpdate(leafUpdate(id, rs.Round, rs.Version))
	}
}

// TestRelayTreeMatchesFlatFederationExactly is the hierarchy's equivalence
// gate: a 2-relay tree over in-process transports — each relay folding its
// region with the production masked-layout path — must reproduce the flat
// federation's weighted average bit for bit for equal-weight regions. The
// leaf states are dyadic rationals (see dyadicTensors), so any deviation is
// an arithmetic bug, not float noise.
func TestRelayTreeMatchesFlatFederationExactly(t *testing.T) {
	const (
		relays        = 2
		leavesPer     = 2
		rounds        = 1
		globalVersion = 0
	)
	globalBlob, err := comm.EncodeTensors(dyadicTensors(99, testShapes))
	if err != nil {
		t.Fatal(err)
	}
	rs := comm.RoundStart{
		Round: 1, State: globalBlob, Groups: testGroups,
		SelectFraction: 1, LocalEpochs: 1, Version: globalVersion, Layout: testLayout,
	}

	// The flat reference: all four leaves folded by one masked aggregator,
	// exactly what a relay-less fedserver would compute.
	fallback, err := comm.DecodeTensors(globalBlob)
	if err != nil {
		t.Fatal(err)
	}
	flatAgg, err := comm.NewMaskedStreamAggregator(nil, testGroups, testLayout)
	if err != nil {
		t.Fatal(err)
	}
	flatAgg.SetCodec(nil, fallback)
	for id := 0; id < relays*leavesPer; id++ {
		if err := flatAgg.Add(leafUpdate(id, 1, globalVersion)); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := flatAgg.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// The tree: two Relays over pipe transports, a manual root.
	rootLst := comm.NewPipeListener(relays)
	sent := make(chan comm.ClientUpdate, relays) // the frames the relays put on the wire
	relayErr := make(chan error, relays)
	for r := 0; r < relays; r++ {
		leafLst := comm.NewPipeListener(leavesPer)
		for i := 0; i < leavesPer; i++ {
			go runLeaf(leafLst.ClientSide(i), r*leavesPer+i)
		}
		go func(r int, leafLst *comm.PipeListener) {
			relayErr <- Relay(frameTap{rootLst.ClientSide(r), sent}, leafLst, RelayConfig{
				RelayID: r, Leaves: leavesPer, Rounds: rounds,
				Engine: comm.EngineConfig{Quorum: 1},
			})
		}(r, leafLst)
	}
	sess, err := comm.AcceptClientsCodec(rootLst, relays, rounds, "")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{Quorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A relay answers with an ordinary ClientUpdate, folded like any other.
	rootAgg := comm.NewStreamAggregator()
	out, err := engine.RunCohort(rs, []int{0, 1}, rootAgg.Add)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reported) != relays {
		t.Fatalf("root round reported %v", out.Reported)
	}
	tree, err := rootAgg.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < relays; r++ {
		if err := <-relayErr; err != nil {
			t.Fatalf("relay exited with %v", err)
		}
	}

	if len(tree) != len(flat) {
		t.Fatalf("tree fused %d tensors, flat %d", len(tree), len(flat))
	}
	for i := range flat {
		if !tree[i].Equal(flat[i]) {
			t.Fatalf("tensor %d: tree aggregate diverges from flat federation\ntree: %v\nflat: %v",
				i, tree[i].Data(), flat[i].Data())
		}
	}

	// Region metadata: relay 0 folded leaves 0 (entropy 1, loss 0.5) and 1
	// (entropy NaN, loss 1.0), 16 selected samples each, and ships the whole
	// broadcast.
	regions := make(map[int]comm.ClientUpdate, relays)
	for r := 0; r < relays; r++ {
		u := <-sent
		regions[u.ClientID] = u
	}
	ru := regions[0]
	if ru.NumSelected != 32 || len(ru.Groups) != 0 {
		t.Fatalf("region 0 mass: %+v", ru)
	}
	if ru.TrainSeconds != 0.25+0.5 {
		t.Fatalf("region 0 train seconds %v", ru.TrainSeconds)
	}
	if want := (16*0.5 + 16*1.0) / 32; ru.TrainLoss != want {
		t.Fatalf("region 0 loss %v, want %v", ru.TrainLoss, want)
	}
	// Only leaf 0 reported an entropy; the weighted mean over reporters is 1.
	if ru.MeanEntropy != 1 {
		t.Fatalf("region 0 entropy %v, want 1", ru.MeanEntropy)
	}
	if ru.Version != globalVersion || ru.Round != 1 {
		t.Fatalf("region 0 stamps: %+v", ru)
	}
}

// frameTap is a relay's root connection that also hands the test every
// update frame the relay sends.
type frameTap struct {
	comm.Conn
	sent chan<- comm.ClientUpdate
}

func (c frameTap) Send(env comm.Envelope) error {
	if env.Type == comm.MsgClientUpdate {
		var u comm.ClientUpdate
		if err := comm.DecodeBody(env, &u); err != nil {
			return err
		}
		c.sent <- u
	}
	return c.Conn.Send(env)
}

// TestRelayConfigValidate pins the fail-fast surface.
func TestRelayConfigValidate(t *testing.T) {
	good := RelayConfig{RelayID: 0, Leaves: 2, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]RelayConfig{
		"negative id": {RelayID: -1, Leaves: 2, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1}},
		"no leaves":   {RelayID: 0, Leaves: 0, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1}},
		"no rounds":   {RelayID: 0, Leaves: 2, Rounds: 0, Engine: comm.EngineConfig{Quorum: 1}},
		"bad quorum":  {RelayID: 0, Leaves: 2, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1.5}},
		"bad codec":   {RelayID: 0, Leaves: 2, Rounds: 3, LeafCodec: "int4"},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// lyingLeaf joins as id and answers every round with the broadcast state
// echoed back — a valid state — under honestMetadata as lie edits it.
func lyingLeaf(conn comm.Conn, id int, lie func(*comm.ClientUpdate)) error {
	sess, _, err := comm.Join(conn, id, 10)
	if err != nil {
		return err
	}
	for {
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			return err
		}
		u := honestMetadata
		u.ClientID, u.Round, u.State = id, rs.Round, rs.State
		lie(&u)
		if err := sess.SendUpdate(u); err != nil {
			return err
		}
	}
}

// serveTree runs cfg's root over pipes against cfg.Relays relays, relay r
// covering leaves 2r and 2r+1 under the region engine config, each leaf run
// by leaf. It returns Serve's results and each relay's error once every peer
// has exited.
func serveTree(t *testing.T, w *experiments.World, cfg Config, region comm.EngineConfig, leaf func(conn comm.Conn, id int) error) (core.History, []error, error) {
	global, err := w.Global.Clone()
	if err != nil {
		return core.History{}, nil, err
	}
	l := comm.NewPipeListener(cfg.Relays)
	relayErrs := make([]error, cfg.Relays)
	var wg sync.WaitGroup
	for r := range cfg.Relays {
		leafL := comm.NewPipeListener(2)
		for i := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := leaf(leafL.ClientSide(i), 2*r+i); err != nil {
					t.Logf("leaf %d: %v", 2*r+i, err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			relayErrs[r] = Relay(l.ClientSide(r), leafL, RelayConfig{RelayID: r, Leaves: 2, Rounds: cfg.Run.Rounds, Engine: region})
		}()
	}
	hist, err := Serve(cfg, l, global, w.Test)
	wg.Wait()
	return hist, relayErrs, err
}

// treeConfig is testConfig as the root of a two-relay tree.
func treeConfig(quorum float64) Config {
	cfg := testConfig(3)
	cfg.Relays, cfg.Quorum = 2, quorum
	return cfg
}

// TestRelayTreeDropsLyingLeaf: leaf 2 answers every round with a valid state
// under one of the self-reported numbers checkMetadata refuses. Its relay
// runs the same check, so at region quorum 0.5 the region drops that leaf —
// as a flat server drops a lying client — and every round folds both regions
// with finite history. (Before relays checked their leaves, the region
// forwarded the lie and the root dropped the whole region.)
func TestRelayTreeDropsLyingLeaf(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	const liar = 2
	for _, tt := range metadataCases {
		if !tt.reject {
			continue
		}
		t.Run(tt.name, func(t *testing.T) {
			cfg := treeConfig(1)
			hist, relayErrs, err := serveTree(t, w, cfg, comm.EngineConfig{Quorum: 0.5}, func(conn comm.Conn, id int) error {
				if id == liar {
					return lyingLeaf(conn, id, tt.edit)
				}
				return honest(w, conn, id, 0)
			})
			if err != nil {
				t.Fatalf("tree with one lying leaf failed: %v", err)
			}
			for r, err := range relayErrs {
				if err != nil {
					t.Errorf("relay %d exited with %v", r, err)
				}
			}
			if len(hist.Records) != cfg.Run.Rounds {
				t.Fatalf("%d records, want %d", len(hist.Records), cfg.Run.Rounds)
			}
			for _, rec := range hist.Records {
				if rec.Participants != cfg.Relays {
					t.Errorf("round %d folded %d regions, want %d", rec.Round, rec.Participants, cfg.Relays)
				}
				if math.IsNaN(rec.MeanTrainLoss) || math.IsInf(rec.MeanTrainLoss, 0) ||
					math.IsNaN(rec.CumTrainSeconds) || math.IsInf(rec.CumTrainSeconds, 0) {
					t.Errorf("round %d: loss %v, seconds %v", rec.Round, rec.MeanTrainLoss, rec.CumTrainSeconds)
				}
			}
		})
	}
}

// TestRelayFailureReleasesRoot: a region whose own quorum fails (quorum 1,
// one leaf whose update its relay refuses) ends its relay with an error, and
// the relay closes its root connection on the way out. A root with no round
// deadline learns of the dead region from that close, drops it, and — at
// quorum 0.5 — finishes every round on the other region instead of waiting
// on the failed one forever.
func TestRelayFailureReleasesRoot(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		lie  func(*comm.ClientUpdate)
	}{
		{"NaN loss", func(u *comm.ClientUpdate) { u.TrainLoss = math.NaN() }},
		{"one Inf weight", func(u *comm.ClientUpdate) {
			ts, err := comm.DecodeTensors(u.State)
			if err != nil {
				panic(err)
			}
			last := ts[len(ts)-1].Data()
			last[len(last)-1] = float32(math.Inf(-1))
			if u.State, err = comm.EncodeTensors(ts); err != nil {
				panic(err)
			}
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := treeConfig(0.5)
			type result struct {
				hist      core.History
				relayErrs []error
				err       error
			}
			done := make(chan result, 1)
			go func() {
				hist, relayErrs, err := serveTree(t, w, cfg, comm.EngineConfig{Quorum: 1}, func(conn comm.Conn, id int) error {
					if id == 2 {
						return lyingLeaf(conn, id, tt.lie)
					}
					return honest(w, conn, id, 0)
				})
				done <- result{hist, relayErrs, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("root still waiting on the failed region after 30s")
			}
			if res.err != nil {
				t.Fatalf("root failed: %v", res.err)
			}
			if res.relayErrs[0] != nil || res.relayErrs[1] == nil {
				t.Fatalf("relay errors %v, want only relay 1's region quorum failure", res.relayErrs)
			}
			if len(res.hist.Records) != cfg.Run.Rounds {
				t.Fatalf("%d records, want %d", len(res.hist.Records), cfg.Run.Rounds)
			}
			for _, rec := range res.hist.Records {
				if rec.Participants != 1 {
					t.Errorf("round %d folded %d regions, want the healthy one", rec.Round, rec.Participants)
				}
			}
		})
	}
}

// codecLeaf joins a region and answers every round with a dyadic state
// derived from (round, id), int8-encoded against the broadcast under the
// region's codec: leaf 1 always, and every leaf in round 3, declares only
// the "up" group, so round 3's "low" tensors fall back to the broadcast.
func codecLeaf(conn comm.Conn, id int) {
	sess, welcome, err := comm.Join(conn, id, 10+id)
	if err != nil {
		return
	}
	defer sess.Close()
	codec, err := comm.PickCodec(welcome.Codecs, "auto")
	if err != nil {
		return
	}
	for {
		rs, ok, err := sess.NextRound()
		if err != nil || !ok {
			return
		}
		ref, err := comm.DecodeTensors(rs.State)
		if err != nil {
			return
		}
		groups, ts := testGroups, dyadicTensors(int64(10*rs.Round+id), testShapes)
		if id == 1 || rs.Round == 3 {
			groups, ts, ref = []string{"up"}, ts[2:], ref[2:]
		}
		blob, err := codec.Encode(ref, ts, comm.CodecSeed(1, rs.Round, id))
		if err != nil {
			return
		}
		_ = sess.SendUpdate(comm.ClientUpdate{ClientID: id, Round: rs.Round, Version: rs.Version,
			State: blob, Codec: codec.Name(), Groups: groups, NumSelected: 8 * (id + 1),
			TrainSeconds: 0.125 * float64(rs.Round+id), TrainLoss: 0.25 * float64(rs.Round*(id+1)),
			MeanEntropy: 0.5 * float64(id+rs.Round)})
	}
}

// TestRelayRegionUpdatesMatchParent: a relay keeps one region aggregator and
// one broadcast decode buffer for the whole run. Over three rounds with a
// new broadcast each round, masked int8 leaves and a float16 upstream, the
// region's ClientUpdate bodies carry the CRCs recorded at the commit before,
// whose relay built a fresh aggregator and decoded a fresh broadcast every
// round. Two leaves at power-of-two weights keep every sum exact, so arrival
// order cannot move a bit.
func TestRelayRegionUpdatesMatchParent(t *testing.T) {
	const rounds = 3
	want := [rounds]uint32{0x937f331d, 0xf586a3b3, 0xa72dc714}
	rootLst, leafLst := comm.NewPipeListener(1), comm.NewPipeListener(2)
	for id := range 2 {
		go codecLeaf(leafLst.ClientSide(id), id)
	}
	sent := make(chan comm.ClientUpdate, rounds)
	relayErr := make(chan error, 1)
	go func() {
		relayErr <- Relay(frameTap{rootLst.ClientSide(0), sent}, leafLst, RelayConfig{
			RelayID: 0, Leaves: 2, Rounds: rounds, Engine: comm.EngineConfig{Quorum: 1}, LeafCodec: "int8"})
	}()
	sess, err := comm.AcceptClientsCodec(rootLst, 1, rounds, "float16")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{Quorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= rounds; round++ {
		blob, err := comm.EncodeTensors(dyadicTensors(int64(100+round), testShapes))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.RunRound(comm.RoundStart{Round: round, State: blob, Groups: testGroups,
			SelectFraction: 1, LocalEpochs: 1, Layout: testLayout}, func(comm.ClientUpdate) error { return nil }); err != nil {
			t.Fatal(err)
		}
		env, err := comm.EncodeBody(comm.MsgClientUpdate, <-sent)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(env.Body); got != want[round-1] {
			t.Errorf("round %d: region update CRC %08x, parent %08x", round, got, want[round-1])
		}
	}
	if err := sess.Shutdown("done"); err != nil {
		t.Fatal(err)
	}
	if err := <-relayErr; err != nil {
		t.Fatal(err)
	}
}

// closeTap is a relay's root connection that reports its Close.
type closeTap struct {
	comm.Conn
	closed chan<- struct{}
}

func (c closeTap) Close() error {
	select {
	case c.closed <- struct{}{}:
	default:
	}
	return c.Conn.Close()
}

// TestRelayRefusesMidRunLayoutChange: the region aggregator is built over
// the first round's Groups and Layout, so a root that broadcasts different
// ones in round 2 is refused with ErrProtocol — and, like every failure, the
// relay shuts its leaves down and closes its root connection.
func TestRelayRefusesMidRunLayoutChange(t *testing.T) {
	for _, tt := range []struct {
		name           string
		groups, layout []string
	}{
		{"layout", testGroups, []string{"low", "up", "up"}},
		{"groups", []string{"up", "low"}, testLayout},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rootLst, leafLst := comm.NewPipeListener(1), comm.NewPipeListener(2)
			leafEnd := make(chan error, 2)
			for id := range 2 {
				go func() {
					leafEnd <- func() error {
						sess, _, err := comm.Join(leafLst.ClientSide(id), id, 10)
						if err != nil {
							return err
						}
						for {
							rs, ok, err := sess.NextRound()
							if err != nil || !ok {
								return err
							}
							if err := sess.SendUpdate(leafUpdate(id, rs.Round, rs.Version)); err != nil {
								return err
							}
						}
					}()
				}()
			}
			closed := make(chan struct{}, 1)
			relayErr := make(chan error, 1)
			go func() {
				relayErr <- Relay(closeTap{rootLst.ClientSide(0), closed}, leafLst, RelayConfig{
					RelayID: 0, Leaves: 2, Rounds: 2, Engine: comm.EngineConfig{Quorum: 1}})
			}()
			sess, err := comm.AcceptClientsCodec(rootLst, 1, 2, "")
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Shutdown("done")
			engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{Quorum: 1})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := comm.EncodeTensors(dyadicTensors(99, testShapes))
			if err != nil {
				t.Fatal(err)
			}
			rs := comm.RoundStart{Round: 1, State: blob, Groups: testGroups, SelectFraction: 1, LocalEpochs: 1, Layout: testLayout}
			if _, err := engine.RunRound(rs, func(comm.ClientUpdate) error { return nil }); err != nil {
				t.Fatal(err)
			}
			rs.Round, rs.Groups, rs.Layout = 2, tt.groups, tt.layout
			if _, err := engine.RunRound(rs, func(comm.ClientUpdate) error { return nil }); err == nil {
				t.Fatal("root round 2 succeeded on a relay that must refuse it")
			}
			timeout := time.After(10 * time.Second)
			select {
			case err := <-relayErr:
				if !errors.Is(err, comm.ErrProtocol) {
					t.Fatalf("relay returned %v, want ErrProtocol", err)
				}
			case <-timeout:
				t.Fatal("relay still running 10s after the changed broadcast")
			}
			select {
			case <-closed:
			case <-timeout:
				t.Fatal("relay returned without closing its root connection")
			}
			for range 2 {
				select {
				case err := <-leafEnd:
					if err != nil {
						t.Fatalf("leaf ended with %v, want a shutdown", err)
					}
				case <-timeout:
					t.Fatal("a leaf was never shut down")
				}
			}
		})
	}
}
