package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// wrnFederation is testFederation's image twin: clients × 24 balanced samples
// reshaped to 1×8×8 planes for a WRN-10-1.
func wrnFederation(t *testing.T, numClients int) ([]*Client, *data.Dataset, models.Spec) {
	t.Helper()
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	image := func(n int) *data.Dataset {
		ds, err := suite.Target10.GenerateBalanced(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if ds.X, err = ds.X.Reshape(n, 1, 8, 8); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i] = &Client{ID: i, Data: image(24), Device: simtime.Device{FLOPSRate: 1e9}}
	}
	spec := models.Spec{Arch: models.ArchWRN, InputShape: []int{1, 8, 8}, NumClasses: 10,
		Depth: 10, WidthFactor: 1, InitSeed: 15}
	return clients, image(60), spec
}

// TestParentCommitDigests pins what a client round computes to the commit
// before the frozen-prefix pass was shared: every digest below was recorded
// there, with the prefix recomputed in the scoring pass, in every minibatch of
// every epoch and in every evaluation. There is no switch to compare against;
// the rows are the reference. They cover both architectures, every finetune
// part (P = 0..3 frozen groups), selectors that score with the model and
// selectors that do not, dropout inside frozen and live groups (a frozen
// dropout must draw nothing), one worker serving tiers with different P back
// to back, overlapping rounds, and the standalone LocalUpdate under a mask.
func TestParentCommitDigests(t *testing.T) {
	eds := selection.Entropy{Temperature: 0.1}
	for _, tt := range []struct {
		name     string
		wrn      bool
		part     models.FinetunePart
		selector selection.Selector
		dropout  float64
		mutate   func(*Config)
		async    bool
		want     string
	}{
		{name: "mlp/full/eds", part: models.FinetuneFull, selector: eds, want: "f86493a435fd0a18"},
		{name: "mlp/full/all", part: models.FinetuneFull, selector: selection.All{}, want: "aba2a58392fe106e"},
		{name: "mlp/large/eds", part: models.FinetuneLarge, selector: eds, want: "e31ebd6aac9f158b"},
		{name: "mlp/large/gradnorm", part: models.FinetuneLarge, selector: selection.GradNorm{}, want: "822cc44adc568f23"},
		{name: "mlp/moderate/eds", part: models.FinetuneModerate, selector: eds, want: "89b8b6da65e7b09e"},
		{name: "mlp/moderate/all", part: models.FinetuneModerate, selector: selection.All{}, want: "d8b13ca4835a0898"},
		{name: "mlp/moderate/rds", part: models.FinetuneModerate, selector: selection.Random{}, want: "9797e32257e93a5b"},
		{name: "mlp/moderate/gradnorm", part: models.FinetuneModerate, selector: selection.GradNorm{}, want: "bf769457b3f02740"},
		{name: "mlp/moderate/batch-eds", part: models.FinetuneModerate, selector: selection.BatchEntropy{Temperature: 0.1, BatchSize: 8}, want: "dbfb32600c70a5f8"},
		{name: "mlp/classifier/eds", part: models.FinetuneClassifier, selector: eds, want: "c724a84b919975cd"},
		{name: "mlp/classifier/rds", part: models.FinetuneClassifier, selector: selection.Random{}, want: "3b126687cf3bff42"},
		{name: "mlp/full/rds/dropout", part: models.FinetuneFull, selector: selection.Random{}, dropout: 0.3, want: "8c0daab5139dab7e"},
		{name: "mlp/large/eds/dropout", part: models.FinetuneLarge, selector: eds, dropout: 0.3, want: "55377c9f783cbc8d"},
		{name: "mlp/moderate/eds/dropout", part: models.FinetuneModerate, selector: eds, dropout: 0.3, want: "12fc3db44da4035e"},
		{name: "mlp/classifier/all/dropout", part: models.FinetuneClassifier, selector: selection.All{}, dropout: 0.3, want: "1cfdea13373d274d"},
		{name: "mlp/large/eds/tiers on one worker", part: models.FinetuneLarge, selector: eds,
			mutate: func(c *Config) { c.TierDist, c.Parallelism = mustDist(t, "low:1,mid:1,full:1"), 1 }, want: "7c4c489e1c901d79"},
		{name: "mlp/moderate/eds/async buffer 2", part: models.FinetuneModerate, selector: eds, async: true, want: "6491d9f214dd8bb7"},
		{name: "wrn/full/all", wrn: true, part: models.FinetuneFull, selector: selection.All{}, want: "18a21bb92de7cfb0"},
		{name: "wrn/large/eds", wrn: true, part: models.FinetuneLarge, selector: eds, want: "3dc46834f45622a3"},
		{name: "wrn/moderate/eds", wrn: true, part: models.FinetuneModerate, selector: eds, want: "33cdfce1a7e08f78"},
		{name: "wrn/moderate/batch-eds", wrn: true, part: models.FinetuneModerate, selector: selection.BatchEntropy{Temperature: 0.1, BatchSize: 8}, want: "5c3399d0de34fc92"},
		{name: "wrn/classifier/gradnorm", wrn: true, part: models.FinetuneClassifier, selector: selection.GradNorm{}, want: "57b9cfdf3e2f0350"},
		{name: "wrn/moderate/eds/dropout", wrn: true, part: models.FinetuneModerate, selector: eds, dropout: 0.3, want: "3d70ab65373dde0f"},
		{name: "wrn/classifier/rds/dropout", wrn: true, part: models.FinetuneClassifier, selector: selection.Random{}, dropout: 0.3, want: "9af00e1674856d39"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clients, _, test, spec := testFederation(t, 6, 0.5)
			cfg := Config{Rounds: 3, LocalEpochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.5, EvalEvery: 1, Seed: 21}
			if tt.wrn {
				clients, test, spec = wrnFederation(t, 3)
				cfg.Rounds, cfg.LR = 2, 0.05
			}
			spec.DropoutRate = tt.dropout
			cfg.FinetunePart, cfg.Selector, cfg.SelectFraction = tt.part, tt.selector, 0.5
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if tt.async {
				cfg.Async = AsyncConfig{Buffer: 2, MaxStaleness: 2, Weigher: strategy.InvSqrtStaleness()}
			}
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(hist, m); got != tt.want {
				t.Errorf("digest %s, want %s", got, tt.want)
			}
		})
	}
}

// outcomeDigest hashes everything a LocalOutcome reports, State bits
// included; withState false leaves State out, for callers that may no longer
// read it.
func outcomeDigest(out LocalOutcome, withState bool) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %+v %016x %016x", out.NumSelected, out.Cost,
		math.Float64bits(out.TrainLoss), math.Float64bits(out.MeanEntropy))
	if withState {
		for _, ts := range out.State {
			for _, v := range ts.Data() {
				fmt.Fprintf(h, "%08x", math.Float32bits(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestParentCommitLocalUpdateDigest is the same pin for the standalone client
// round under a layer mask (what fedclient runs): a first call, on a freshly
// built replica, with three frozen groups, recorded at the same commit.
func TestParentCommitLocalUpdateDigest(t *testing.T) {
	clients, _, _, spec := testFederation(t, 6, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewLocalConfig(Config{LocalEpochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.5,
		Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5, Seed: 21,
		TrainGroups: []string{models.GroupClassifier}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := LocalUpdate(cfg, m, clients[2], 4)
	if err != nil {
		t.Fatal(err)
	}
	const want = "746a8470a3c80068"
	if got := outcomeDigest(out, true); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
