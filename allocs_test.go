// Allocation regression guards for the zero-allocation training hot path:
// once the layer workspaces, loss scratch and optimizer buffers are warm, a
// full train step (forward, loss+grad, backward, SGD step) must not allocate.
package fedfteds_test

import (
	"math/rand"
	"runtime"
	"testing"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/fleet"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/partition"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/tensor"
)

// trainStepAllocs builds a model from spec, warms its workspaces, and returns
// the steady-state allocations of one train step.
func trainStepAllocs(t *testing.T, spec models.Spec, batchShape []int) float64 {
	t.Helper()
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	x := tensor.New(batchShape...)
	x.FillNormal(rng, 0, 1)
	labels := make([]int, batchShape[0])
	for i := range labels {
		labels[i] = i % spec.NumClasses
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.05, Momentum: 0.5}, m.TrainableParams())
	if err != nil {
		t.Fatal(err)
	}
	loss := nn.SoftmaxCrossEntropy{}
	var ls nn.LossScratch
	step := func() {
		logits := m.Forward(x, true)
		_, dl, err := loss.LossInto(&ls, logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		m.Backward(dl)
		sgd.Step()
	}
	// Warm the workspace caches before measuring (AllocsPerRun adds one more
	// warmup run of its own).
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(20, step)
}

func TestMLPTrainStepZeroAllocs(t *testing.T) {
	spec := models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{64},
		NumClasses: 10,
		Hidden:     64,
		InitSeed:   1,
	}
	if allocs := trainStepAllocs(t, spec, []int{32, 64}); allocs > 0 {
		t.Fatalf("MLP train step allocates %v times in steady state, want 0", allocs)
	}
}

// TestMLPInferencePassesZeroAllocs guards the passes that run no backward on
// the experiment MLP: an evaluation-mode Forward and the frozen-prefix
// ForwardPrefix a FedFT-EDS client scores its data with allocate nothing
// once their workspaces are warm — BatchNorm's float64 copies of the running
// mean, γ and β live in its per-channel scratch.
func TestMLPInferencePassesZeroAllocs(t *testing.T) {
	env, err := experiments.NewEnv(experiments.ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.FreshModel(env.Suite.Target10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(models.FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	p := m.FrozenDepth()
	if p == 0 {
		t.Fatal("moderate fine-tuning froze no group")
	}
	x := tensor.New(32, env.Suite.Universe.ObsDim)
	x.FillNormal(rand.New(rand.NewSource(19)), 0, 1)
	for _, tt := range []struct {
		name string
		pass func()
	}{
		{"eval-mode Forward", func() { m.Forward(x, false) }},
		{"frozen-prefix ForwardPrefix", func() { m.ForwardPrefix(x, p) }},
	} {
		tt.pass()
		if allocs := testing.AllocsPerRun(20, tt.pass); allocs != 0 {
			t.Errorf("%s allocates %v times in steady state, want 0", tt.name, allocs)
		}
	}
}

func TestWRNTrainStepZeroAllocs(t *testing.T) {
	spec := models.Spec{
		Arch:        models.ArchWRN,
		InputShape:  []int{3, 16, 16},
		NumClasses:  10,
		Depth:       10,
		WidthFactor: 1,
		InitSeed:    1,
	}
	if allocs := trainStepAllocs(t, spec, []int{4, 3, 16, 16}); allocs > 0 {
		t.Fatalf("WRN train step allocates %v times in steady state, want 0", allocs)
	}
}

func TestBatchIterSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(100, 8)
	x.FillNormal(rng, 0, 1)
	y := make([]int, 100)
	for i := range y {
		y[i] = i % 4
	}
	ds, err := data.NewDataset(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	it, err := data.NewBatchIter(ds, []int{3, 7, 11, 12, 20, 33, 41, 59, 60, 61, 77, 90}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up one epoch.
	it.Reset(rng)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		it.Reset(rng)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("BatchIter epoch allocates %v times in steady state, want 0", allocs)
	}
}

// allocFederation builds the small Dirichlet(0.5) federation the round-level
// allocation budgets are measured on: clients × 40 pooled samples and a
// 100-sample test set, identical on every call.
func allocFederation(t *testing.T, clients int) ([]*core.Client, *data.Dataset) {
	t.Helper()
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	pool, err := suite.Target10.GenerateBalanced(clients*40, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := suite.Target10.GenerateBalanced(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Dirichlet(pool.Y, clients, 0.5, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.Client, clients)
	for i, idxs := range parts {
		ds, err := pool.Subset(idxs)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &core.Client{ID: i, Data: ds, Device: simtime.Device{FLOPSRate: 1e9}}
	}
	return out, test
}

// TestLocalUpdateAllocBudget guards LocalUpdate, the fedclient primitive, in
// its two costs. The first call on a model clones it into a replica, which
// must not pay the pool's rebind (no state copy straight after the clone, no
// optimizer cache); a masked call builds exactly one SGD at the mask. Later
// calls on the model rebind the replica it keeps and allocate no model-sized
// memory: what is left is the selector's scores and indices, the per-round
// rng and the state list. The first-call budgets are the counts measured once
// the model memoised its state list and FLOP counts (614/603/461 before;
// 502/492/358 now that untrained models hold no gradients). The later-call
// budgets are the counts measured now; they were 523/513/409 while every call
// built and dropped its replica.
func TestLocalUpdateAllocBudget(t *testing.T) {
	clients, _ := allocFederation(t, 8)
	m, err := models.Build(models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{64},
		NumClasses: 10,
		Hidden:     32,
		InitSeed:   13,
	})
	if err != nil {
		t.Fatal(err)
	}
	eds := core.Config{LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
		Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5, Seed: 9}
	all := eds
	all.Selector, all.SelectFraction = selection.All{}, 1
	const runs = 10
	for _, tt := range []struct {
		name          string
		cfg           core.Config
		mask          []string
		first, steady float64
	}{
		{"entropy selection", eds, nil, 523, 25},
		{"all samples", all, nil, 513, 5},
		{"classifier-only mask", eds, []string{"classifier"}, 409, 16},
	} {
		cfg, err := core.NewLocalConfig(tt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// First calls: a model of its own for every call AllocsPerRun
		// makes (its warm-up included), cloned before the count.
		fresh := make([]*models.Model, runs+1)
		for i := range fresh {
			if fresh[i], err = m.Clone(); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		first := testing.AllocsPerRun(runs, func() {
			if _, err := core.LocalUpdate(cfg, fresh[next], clients[0], 1, tt.mask...); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if first > tt.first {
			t.Errorf("%s: a first LocalUpdate on a model allocates %v times, want <= %v", tt.name, first, tt.first)
		}
		steady := testing.AllocsPerRun(runs, func() {
			if _, err := core.LocalUpdate(cfg, m, clients[0], 1, tt.mask...); err != nil {
				t.Fatal(err)
			}
		})
		if steady > tt.steady {
			t.Errorf("%s: a LocalUpdate on a model it has trained before allocates %v times, want <= %v", tt.name, steady, tt.steady)
		}
		t.Logf("%s: first call %v allocations, later calls %v", tt.name, first, steady)
	}
}

// TestWirePathAllocBudget guards the copy-once wire path: a state blob and a
// message body are each one allocation of exactly their encoded size, and a
// decoded update's State is the received body itself rather than a copy.
func TestWirePathAllocBudget(t *testing.T) {
	m, err := models.Build(models.Spec{Arch: models.ArchMLP, InputShape: []int{64}, NumClasses: 10, Hidden: 32, InitSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	state := m.StateTensors()
	size := 4
	for _, ts := range state {
		size += ts.EncodedSize()
	}
	var blob []byte
	if allocs := testing.AllocsPerRun(10, func() {
		if blob, err = comm.EncodeTensors(state); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 || len(blob) != size || cap(blob) != size {
		t.Errorf("EncodeTensors: %v allocations, %d bytes in a buffer of %d; want 1 allocation of exactly %d", allocs, len(blob), cap(blob), size)
	}

	update := comm.ClientUpdate{ClientID: 1, Round: 2, State: blob, NumSelected: 16, TrainSeconds: 0.5, TrainLoss: 1.25}
	var env comm.Envelope
	if allocs := testing.AllocsPerRun(10, func() {
		if env, err = comm.EncodeBody(comm.MsgClientUpdate, update); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 || cap(env.Body) != len(env.Body) {
		t.Errorf("EncodeBody(ClientUpdate): %v allocations, %d bytes in a buffer of %d; want 1 exact allocation", allocs, len(env.Body), cap(env.Body))
	}

	var got comm.ClientUpdate
	if allocs := testing.AllocsPerRun(10, func() {
		if err = comm.DecodeBody(env, &got); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeBody(ClientUpdate without Groups): %v allocations, want 0", allocs)
	}
	if len(got.State) != len(blob) || &got.State[0] != &env.Body[len(env.Body)-len(blob)] {
		t.Error("decoded State does not alias the tail of the envelope body")
	}
}

// TestScheduledRoundAllocBudget guards the per-round allocation budget of a
// fully scheduled federated round at the Runner level: candidate, weight,
// participant and aggregate buffers are runner scratch, so the marginal
// cost of one more round is a small, pool-size-independent handful of
// allocations (per-round rng derivations, the policy's cohort slices, the
// history record). It is measured differentially — a 6-round run versus a
// 2-round run over identical federations — so one-time warm-up (replicas,
// layer workspaces) cancels out.
func TestScheduledRoundAllocBudget(t *testing.T) {
	const clients = 8
	runAllocs := func(rounds int) float64 {
		cl, test := allocFederation(t, clients)
		m, err := models.Build(models.Spec{
			Arch:       models.ArchMLP,
			InputShape: []int{64},
			NumClasses: 10,
			Hidden:     32,
			InitSeed:   13,
		})
		if err != nil {
			t.Fatal(err)
		}
		runner, err := core.NewRunner(core.Config{
			Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1,
			Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
			CohortSize: 3, EvalEvery: rounds, Parallelism: 1, Seed: 9,
		}, m, cl, test)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := runner.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := runAllocs(2), runAllocs(6)
	perRound := (long - short) / 4
	// The measured steady state is ~650 per round, dominated by the entropy
	// selector's per-client scoring buffers (3 cohort clients × ~200); the
	// scheduling and aggregation plumbing itself is pinned to single digits
	// by the internal/core alloc tests. The budget has headroom for noise
	// but trips on any regression to per-round rebuilding of state-sized
	// buffers (one client state is ~20 tensors × 3 clients × 4 rounds).
	if perRound > 800 {
		t.Fatalf("scheduled round allocates %.1f times per round in steady state (short %v, long %v), want <= 800",
			perRound, short, long)
	}
}

// TestFleetRoundMemoryBounded guards the virtual fleet's headline property at
// the whole-process level: running scheduled rounds over a 100k-client fleet
// keeps resident heap bounded by the cohort and the reuse pool, a small
// fraction of what materializing the population eagerly would cost. The
// descriptors (per-client sketch, size, rate, cluster) are the only O(N)
// state and weigh a few hundred bytes per client; the datasets themselves
// only ever exist for the pool's residents.
func TestFleetRoundMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-client fleet")
	}
	const (
		clients  = 100_000
		cohort   = 32
		poolSize = 64
	)
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatal(err)
	}
	test, err := suite.Target10.GenerateBalanced(200, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	f, err := fleet.New(fleet.Spec{
		Clients: clients, Seed: 42, Domain: suite.Target10,
		MinSamples: 10, MaxSamples: 30, Alpha: 0.3,
		Clusters: 8, PoolSize: poolSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{64},
		NumClasses: 10,
		Hidden:     32,
		InitSeed:   13,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewRunnerWithSource(core.Config{
		Rounds: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
		Selector: selection.All{}, Scheduler: sched.UniformRandom{},
		CohortSize: cohort, EvalEvery: 2, Parallelism: 1, Seed: 9,
	}, m, f, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	// Heap growth attributable to the fleet plus two full rounds. The eager
	// estimate for this population is ~580 MB; the budget is under a sixth
	// of that, so the guard trips long before anyone reintroduces O(N)
	// dataset residency.
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	eager := fleet.EstimateEagerBytes(clients, 10, 30, 64)
	const budget = 96 << 20
	if budget*4 >= eager {
		t.Fatalf("budget %d no longer meaningfully below eager estimate %d", int64(budget), eager)
	}
	if delta > budget {
		t.Fatalf("fleet round retained %d heap bytes (budget %d, eager estimate %d)",
			delta, int64(budget), eager)
	}
	if st := f.Stats(); st.PeakResident > poolSize+cohort {
		t.Fatalf("peak residency %d exceeds pool %d + cohort %d", st.PeakResident, poolSize, cohort)
	}
}

// TestTieredRoundAllocBudget is TestScheduledRoundAllocBudget's tier-mode
// twin: with a mixed tier distribution the per-round masked-aggregation
// plumbing (tier masks, cover maps, per-tensor weight totals) is runner
// scratch too, so the marginal cost of one more tiered round stays within
// the same order as the untiered budget. Measured differentially so one-time
// warm-up (replicas, per-mask optimizers, cover caches) cancels out.
func TestTieredRoundAllocBudget(t *testing.T) {
	const clients = 8
	dist, err := device.ParseDistribution("low:1,mid:1,full:2")
	if err != nil {
		t.Fatal(err)
	}
	runAllocs := func(rounds int) float64 {
		cl, test := allocFederation(t, clients)
		m, err := models.Build(models.Spec{
			Arch:       models.ArchMLP,
			InputShape: []int{64},
			NumClasses: 10,
			Hidden:     32,
			InitSeed:   13,
		})
		if err != nil {
			t.Fatal(err)
		}
		runner, err := core.NewRunner(core.Config{
			Rounds: rounds, LocalEpochs: 1, BatchSize: 16, LR: 0.1,
			Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
			CohortSize: 3, TierDist: dist, EvalEvery: rounds, Parallelism: 1, Seed: 9,
		}, m, cl, test)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := runner.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := runAllocs(2), runAllocs(6)
	perRound := (long - short) / 4
	if perRound > 800 {
		t.Fatalf("tiered round allocates %.1f times per round in steady state (short %v, long %v), want <= 800",
			perRound, short, long)
	}
}
