package selection

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// testModel returns a small MLP over 8 features with 4 classes.
func testModel(t *testing.T) *models.Model {
	t.Helper()
	m, err := models.Build(models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{8},
		NumClasses: 4,
		Hidden:     16,
		InitSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(n, 8)
	x.FillNormal(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % 4
	}
	ds, err := data.NewDataset(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAllSelectsEverything(t *testing.T) {
	ds := testDataset(t, 17)
	idx, err := All{}.Select(nil, ds, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 17 {
		t.Fatalf("All selected %d of 17", len(idx))
	}
}

func TestRandomSelectsFraction(t *testing.T) {
	ds := testDataset(t, 100)
	rng := rand.New(rand.NewSource(3))
	idx, err := Random{}.Select(nil, ds, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 10 {
		t.Fatalf("Random selected %d, want 10", len(idx))
	}
	if !sort.IntsAreSorted(idx) {
		t.Fatal("indices not sorted")
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatal("duplicate index")
		}
		seen[i] = true
	}
}

func TestRandomDiffersAcrossRounds(t *testing.T) {
	ds := testDataset(t, 100)
	rng := rand.New(rand.NewSource(4))
	a, err := Random{}.Select(nil, ds, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random{}.Select(nil, ds, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two draws were identical; selection is not re-randomized per round")
	}
}

func TestFractionValidation(t *testing.T) {
	ds := testDataset(t, 10)
	rng := rand.New(rand.NewSource(5))
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := (Random{}).Select(nil, ds, frac, rng); !errors.Is(err, ErrSelection) {
			t.Fatalf("fraction %v: expected ErrSelection, got %v", frac, err)
		}
	}
	// Tiny fraction still selects at least one sample.
	idx, err := Random{}.Select(nil, ds, 0.001, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 {
		t.Fatalf("tiny fraction selected %d, want 1", len(idx))
	}
}

func TestEntropySelectsHighestEntropy(t *testing.T) {
	m := testModel(t)
	ds := testDataset(t, 40)
	e := Entropy{Temperature: 0.5}
	idx, err := e.Select(m, ds, 0.25, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 10 {
		t.Fatalf("selected %d, want 10", len(idx))
	}
	scores, err := SampleEntropies(m, ds, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Every selected sample must have entropy >= every unselected sample.
	sel := map[int]bool{}
	for _, i := range idx {
		sel[i] = true
	}
	minSel := math.Inf(1)
	for _, i := range idx {
		if scores[i] < minSel {
			minSel = scores[i]
		}
	}
	for i, s := range scores {
		if !sel[i] && s > minSel+1e-12 {
			t.Fatalf("unselected sample %d has entropy %v > min selected %v", i, s, minSel)
		}
	}
}

func TestEntropyTemperatureValidation(t *testing.T) {
	m := testModel(t)
	ds := testDataset(t, 10)
	if _, err := (Entropy{Temperature: 0}).Select(m, ds, 0.5, nil); !errors.Is(err, ErrSelection) {
		t.Fatalf("expected ErrSelection, got %v", err)
	}
	if _, err := SampleEntropies(m, ds, -1); !errors.Is(err, ErrSelection) {
		t.Fatalf("expected ErrSelection, got %v", err)
	}
}

func TestEntropiesBounded(t *testing.T) {
	m := testModel(t)
	ds := testDataset(t, 30)
	for _, temp := range []float64{0.01, 0.1, 1.0, 10.0} {
		scores, err := SampleEntropies(m, ds, temp)
		if err != nil {
			t.Fatal(err)
		}
		maxH := math.Log(4)
		for i, h := range scores {
			if h < -1e-9 || h > maxH+1e-6 {
				t.Fatalf("temp %v: sample %d entropy %v outside [0, log4]", temp, i, h)
			}
		}
	}
}

func TestHardenedSoftmaxSharpensSelection(t *testing.T) {
	// The paper's Fig. 1 claim: lowering ρ concentrates the entropy
	// distribution near zero, leaving a thin high-entropy tail. Check that
	// the median entropy (normalized) drops as ρ decreases.
	m := testModel(t)
	ds := testDataset(t, 200)
	median := func(temp float64) float64 {
		scores, err := SampleEntropies(m, ds, temp)
		if err != nil {
			t.Fatal(err)
		}
		s := append([]float64(nil), scores...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	m10, m05, m01 := median(1.0), median(0.5), median(0.1)
	if !(m01 < m05 && m05 < m10) {
		t.Fatalf("median entropy not decreasing with temperature: ρ=1.0:%v ρ=0.5:%v ρ=0.1:%v", m10, m05, m01)
	}
}

func TestMarginAndLeastConfidenceSelect(t *testing.T) {
	m := testModel(t)
	ds := testDataset(t, 50)
	rng := rand.New(rand.NewSource(7))
	for _, sel := range []Selector{Margin{}, LeastConfidence{}} {
		idx, err := sel.Select(m, ds, 0.2, rng)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if len(idx) != 10 {
			t.Fatalf("%s selected %d, want 10", sel.Name(), len(idx))
		}
		if sel.ScoringPasses() != 1 {
			t.Fatalf("%s reports %d scoring passes", sel.Name(), sel.ScoringPasses())
		}
	}
}

func TestBatchEntropySelectsWholeBatches(t *testing.T) {
	m := testModel(t)
	ds := testDataset(t, 64)
	be := BatchEntropy{Temperature: 0.5, BatchSize: 8}
	idx, err := be.Select(m, ds, 0.25, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 16 {
		t.Fatalf("selected %d, want 16", len(idx))
	}
}

func TestBatchEntropyValidation(t *testing.T) {
	m := testModel(t)
	ds := testDataset(t, 10)
	if _, err := (BatchEntropy{Temperature: -1}).Select(m, ds, 0.5, rand.New(rand.NewSource(1))); !errors.Is(err, ErrSelection) {
		t.Fatalf("expected ErrSelection, got %v", err)
	}
}

func TestSelectorNames(t *testing.T) {
	names := map[string]Selector{
		"all":       All{},
		"rds":       Random{},
		"eds":       Entropy{Temperature: 0.1},
		"margin":    Margin{},
		"leastconf": LeastConfidence{},
		"batch-eds": BatchEntropy{Temperature: 0.1},
	}
	for want, sel := range names {
		if got := sel.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}
}

func TestTopKByScoreStableTies(t *testing.T) {
	scores := []float64{1, 3, 3, 2}
	got := topKByScore(scores, 2)
	// Ties broken by lower index: picks 1 and 2.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("topK = %v, want [1 2]", got)
	}
}

// TestSampleEntropiesMatchSoftmaxEntropies holds the batch scoring, which
// keeps its probabilities in a scratch, to nn.ShannonEntropyRows of
// nn.Softmax batch by batch, bit for bit, and checks that the scoring adds
// no allocation per batch: its count grows with the batches only by the
// views ds.Batches makes.
func TestSampleEntropiesMatchSoftmaxEntropies(t *testing.T) {
	m := testModel(t)
	allocs := map[int]float64{}
	for _, n := range []int{scoreBatchSize, 6*scoreBatchSize + 5} {
		ds := testDataset(t, n)
		got, err := SampleEntropies(m, ds, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		batches, err := ds.Batches(scoreBatchSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		for _, b := range batches {
			want = append(want, nn.ShannonEntropyRows(nn.Softmax(m.Forward(b.X, false), 0.1))...)
		}
		if len(got) != len(want) {
			t.Fatalf("%d samples: %d entropies, want %d", n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d samples: entropy %d = %v, per-batch softmax %v", n, i, got[i], want[i])
			}
		}
		allocs[len(batches)] = testing.AllocsPerRun(10, func() { SampleEntropies(m, ds, 0.1) }) -
			testing.AllocsPerRun(10, func() { ds.Batches(scoreBatchSize, nil) })
	}
	if allocs[1] != allocs[7] {
		t.Fatalf("SampleEntropies allocates %v times over 1 batch and %v over 7 beside its batch views, want the same",
			allocs[1], allocs[7])
	}
}

// TestProbabilitySelectorsAllocateNothingPerBatch checks that the margin,
// least-confidence and gradient-norm scoring reuse one probabilities tensor
// and scratch across batches: a selection's allocation count grows with
// the batches only by the views ds.Batches makes.
func TestProbabilitySelectorsAllocateNothingPerBatch(t *testing.T) {
	m := testModel(t)
	for _, sel := range []Selector{Margin{}, LeastConfidence{}, GradNorm{}} {
		allocs := map[int]float64{}
		for _, n := range []int{scoreBatchSize, 6*scoreBatchSize + 5} {
			ds := testDataset(t, n)
			batches, err := ds.Batches(scoreBatchSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := sel.Select(m, ds, 0.5, nil); err != nil {
					t.Fatal(err)
				}
			}
			run()
			allocs[len(batches)] = testing.AllocsPerRun(10, run) -
				testing.AllocsPerRun(10, func() { ds.Batches(scoreBatchSize, nil) })
		}
		if allocs[1] != allocs[7] {
			t.Errorf("%s allocates %v times over 1 batch and %v over 7 beside its batch views, want the same",
				sel.Name(), allocs[1], allocs[7])
		}
	}
}
