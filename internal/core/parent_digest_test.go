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
		{name: "mlp/full/eds", part: models.FinetuneFull, selector: eds, want: "6006618f62810d93"},
		{name: "mlp/full/all", part: models.FinetuneFull, selector: selection.All{}, want: "e26fc352b14e4a04"},
		{name: "mlp/large/eds", part: models.FinetuneLarge, selector: eds, want: "29716fed6a009959"},
		{name: "mlp/large/gradnorm", part: models.FinetuneLarge, selector: selection.GradNorm{}, want: "4835b8d7b99e334e"},
		{name: "mlp/moderate/eds", part: models.FinetuneModerate, selector: eds, want: "1bb542f40961d378"},
		{name: "mlp/moderate/all", part: models.FinetuneModerate, selector: selection.All{}, want: "8b15e8278aaa5380"},
		{name: "mlp/moderate/rds", part: models.FinetuneModerate, selector: selection.Random{}, want: "1d7ccb799ac57aa9"},
		{name: "mlp/moderate/gradnorm", part: models.FinetuneModerate, selector: selection.GradNorm{}, want: "c4f65248956e52d0"},
		{name: "mlp/moderate/batch-eds", part: models.FinetuneModerate, selector: selection.BatchEntropy{Temperature: 0.1, BatchSize: 8}, want: "807957533956d47d"},
		{name: "mlp/classifier/eds", part: models.FinetuneClassifier, selector: eds, want: "566512a9b0a7f8c5"},
		{name: "mlp/classifier/rds", part: models.FinetuneClassifier, selector: selection.Random{}, want: "695c9fda536a1aec"},
		{name: "mlp/full/rds/dropout", part: models.FinetuneFull, selector: selection.Random{}, dropout: 0.3, want: "05111cff4bf63707"},
		{name: "mlp/large/eds/dropout", part: models.FinetuneLarge, selector: eds, dropout: 0.3, want: "d1042df3a015eb73"},
		{name: "mlp/moderate/eds/dropout", part: models.FinetuneModerate, selector: eds, dropout: 0.3, want: "f81c24b44698a3fe"},
		{name: "mlp/classifier/all/dropout", part: models.FinetuneClassifier, selector: selection.All{}, dropout: 0.3, want: "4db356e44204d6c1"},
		{name: "mlp/large/eds/tiers on one worker", part: models.FinetuneLarge, selector: eds,
			mutate: func(c *Config) { c.TierDist, c.Parallelism = mustDist(t, "low:1,mid:1,full:1"), 1 }, want: "42fe06d912396d79"},
		{name: "mlp/moderate/eds/async buffer 2", part: models.FinetuneModerate, selector: eds, async: true, want: "f30df4a75fb06923"},
		{name: "wrn/full/all", wrn: true, part: models.FinetuneFull, selector: selection.All{}, want: "afb19f59ac4cda8b"},
		{name: "wrn/large/eds", wrn: true, part: models.FinetuneLarge, selector: eds, want: "bb991f1cfed117a8"},
		{name: "wrn/moderate/eds", wrn: true, part: models.FinetuneModerate, selector: eds, want: "48fd8fcfbd22712c"},
		{name: "wrn/moderate/batch-eds", wrn: true, part: models.FinetuneModerate, selector: selection.BatchEntropy{Temperature: 0.1, BatchSize: 8}, want: "a490b51c37a87bd3"},
		{name: "wrn/classifier/gradnorm", wrn: true, part: models.FinetuneClassifier, selector: selection.GradNorm{}, want: "1d785f4aab8b41a8"},
		{name: "wrn/moderate/eds/dropout", wrn: true, part: models.FinetuneModerate, selector: eds, dropout: 0.3, want: "0c4fa598dcb966c5"},
		{name: "wrn/classifier/rds/dropout", wrn: true, part: models.FinetuneClassifier, selector: selection.Random{}, dropout: 0.3, want: "e51aeea657687ed4"},
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
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			var hist History
			if tt.async {
				hist, err = r.RunAsync(AsyncConfig{Buffer: 2, MaxStaleness: 2, Weigher: strategy.InvSqrtStaleness()})
			} else {
				hist, err = r.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(hist, m); got != tt.want {
				t.Errorf("digest %s, want %s", got, tt.want)
			}
		})
	}
}

// TestParentCommitLocalUpdateDigest is the same pin for the standalone client
// round under a layer mask (what fedclient runs): a one-shot replica with
// three frozen groups, recorded at the same commit.
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
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %+v %016x %016x", out.NumSelected, out.Cost,
		math.Float64bits(out.TrainLoss), math.Float64bits(out.MeanEntropy))
	for _, ts := range out.State {
		for _, v := range ts.Data() {
			fmt.Fprintf(h, "%08x", math.Float32bits(v))
		}
	}
	const want = "746a8470a3c80068"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
