package relay

import (
	"math"
	"testing"

	"fedfteds/internal/comm"
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

	// The tree: two relay.Run processes over pipe transports, a manual root.
	rootLst := comm.NewPipeListener(relays)
	sent := make(chan comm.RegionUpdate, relays) // the frames the relays put on the wire
	relayErr := make(chan error, relays)
	for r := 0; r < relays; r++ {
		leafLst := comm.NewPipeListener(leavesPer)
		for i := 0; i < leavesPer; i++ {
			go runLeaf(leafLst.ClientSide(i), r*leavesPer+i)
		}
		go func(r int, leafLst *comm.PipeListener) {
			relayErr <- Run(frameTap{rootLst.ClientSide(r), sent}, leafLst, Config{
				RelayID: r, Leaves: leavesPer, Rounds: rounds,
				Engine: comm.EngineConfig{Quorum: 1},
			})
		}(r, leafLst)
	}
	sess, err := comm.AcceptClientsCodec(rootLst, relays, rounds, "")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < relays; r++ {
		if !sess.IsRelay(r) || sess.DownstreamClients(r) != leavesPer {
			t.Fatalf("relay %d registered as relay=%v leaves=%d", r, sess.IsRelay(r), sess.DownstreamClients(r))
		}
	}
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{Quorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The engine reads a registered relay's RegionUpdate and hands the fold
	// the ClientUpdate it reshapes it into.
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
	// (entropy NaN, loss 1.0), 16 selected samples each.
	regions := make(map[int]comm.RegionUpdate, relays)
	for r := 0; r < relays; r++ {
		ru := <-sent
		regions[ru.RelayID] = ru
	}
	ru := regions[0]
	if ru.Weight != 32 || ru.NumSelected != 32 || ru.Clients != 2 {
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
// RegionUpdate frame the relay sends.
type frameTap struct {
	comm.Conn
	sent chan<- comm.RegionUpdate
}

func (c frameTap) Send(env comm.Envelope) error {
	if env.Type == comm.MsgRegionUpdate {
		var ru comm.RegionUpdate
		if err := comm.DecodeBody(env, &ru); err != nil {
			return err
		}
		c.sent <- ru
	}
	return c.Conn.Send(env)
}

// TestConfigValidate pins the fail-fast surface.
func TestConfigValidate(t *testing.T) {
	good := Config{RelayID: 0, Leaves: 2, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"negative id": {RelayID: -1, Leaves: 2, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1}},
		"no leaves":   {RelayID: 0, Leaves: 0, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1}},
		"no rounds":   {RelayID: 0, Leaves: 2, Rounds: 0, Engine: comm.EngineConfig{Quorum: 1}},
		"bad quorum":  {RelayID: 0, Leaves: 2, Rounds: 3, Engine: comm.EngineConfig{Quorum: 1.5}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
