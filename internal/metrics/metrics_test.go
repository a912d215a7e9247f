package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/tensor"
)

func testModel(t *testing.T, seed int64) *models.Model {
	t.Helper()
	m, err := models.Build(models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{6},
		NumClasses: 3,
		Hidden:     12,
		InitSeed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(n, 6)
	x.FillNormal(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % 3
	}
	ds, err := data.NewDataset(x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAccuracyBounds(t *testing.T) {
	m := testModel(t, 1)
	ds := testDataset(t, 60)
	acc, err := Accuracy(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v outside [0,1]", acc)
	}
}

func TestTopKAccuracyMonotone(t *testing.T) {
	m := testModel(t, 2)
	ds := testDataset(t, 60)
	a1, err := TopKAccuracy(m, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := TopKAccuracy(m, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := TopKAccuracy(m, ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(a1 <= a2 && a2 <= a3) {
		t.Fatalf("top-k accuracy not monotone: %v %v %v", a1, a2, a3)
	}
	if a3 != 1 {
		t.Fatalf("top-C accuracy %v, want 1", a3)
	}
}

func TestTopKValidation(t *testing.T) {
	m := testModel(t, 3)
	ds := testDataset(t, 10)
	if _, err := TopKAccuracy(m, ds, 0); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics for k=0, got %v", err)
	}
	if _, err := TopKAccuracy(m, ds, 7); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics for k>C, got %v", err)
	}
}

func TestCKASelfSimilarityIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(20, 8)
	x.FillNormal(rng, 0, 1)
	v, err := LinearCKA(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Fatalf("CKA(X,X) = %v, want 1", v)
	}
}

func TestCKAInvariantToIsotropicScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(15, 5)
	y := tensor.New(15, 7)
	x.FillNormal(rng, 0, 1)
	y.FillNormal(rng, 0, 1)
	v1, err := LinearCKA(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ys := y.Clone()
	ys.Scale(3.7)
	v2, err := LinearCKA(x, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-v2) > 1e-9 {
		t.Fatalf("CKA changed under scaling: %v vs %v", v1, v2)
	}
}

func TestCKASymmetricAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(12, 4)
	y := tensor.New(12, 9)
	x.FillNormal(rng, 0, 1)
	y.FillNormal(rng, 0, 1)
	xy, err := LinearCKA(x, y)
	if err != nil {
		t.Fatal(err)
	}
	yx, err := LinearCKA(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xy-yx) > 1e-9 {
		t.Fatalf("CKA asymmetric: %v vs %v", xy, yx)
	}
	if xy < 0 || xy > 1+1e-9 {
		t.Fatalf("CKA %v outside [0,1]", xy)
	}
}

func TestCKADetectsSharedStructure(t *testing.T) {
	// Y = X @ R (random rotation/mixing) has CKA(X, Y) near 1; independent
	// noise has much lower CKA.
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(30, 6)
	x.FillNormal(rng, 0, 1)
	r := tensor.New(6, 6)
	r.FillNormal(rng, 0, 1)
	y, err := tensor.MatMulNew(x, r)
	if err != nil {
		t.Fatal(err)
	}
	related, err := LinearCKA(x, y)
	if err != nil {
		t.Fatal(err)
	}
	noise := tensor.New(30, 6)
	noise.FillNormal(rng, 0, 1)
	unrelated, err := LinearCKA(x, noise)
	if err != nil {
		t.Fatal(err)
	}
	if related <= unrelated {
		t.Fatalf("CKA related %v <= unrelated %v", related, unrelated)
	}
	if related < 0.5 {
		t.Fatalf("CKA of linearly related representations %v, want high", related)
	}
}

func TestCKAValidation(t *testing.T) {
	x := tensor.New(5, 3)
	y := tensor.New(6, 3)
	if _, err := LinearCKA(x, y); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics for row mismatch, got %v", err)
	}
	constant := tensor.New(5, 3) // all zeros → centered to zero
	if _, err := LinearCKA(constant, constant); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics for constant reps, got %v", err)
	}
}

func TestPairwiseCKAMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reps := make([]*tensor.Tensor, 4)
	for i := range reps {
		r := tensor.New(10, 5)
		r.FillNormal(rng, 0, 1)
		reps[i] = r
	}
	m, err := PairwiseCKA(reps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Fatalf("diagonal [%d] = %v", i, m[i][i])
		}
		for j := range m {
			if math.Abs(m[i][j]-m[j][i]) > 1e-12 {
				t.Fatal("pairwise CKA not symmetric")
			}
		}
	}
	if mo := MeanOffDiagonal(m); mo <= 0 || mo >= 1 {
		t.Fatalf("mean off-diagonal %v implausible for random reps", mo)
	}
}

func TestHistogram(t *testing.T) {
	vals := []float64{0.05, 0.15, 0.15, 0.95, -1, 2}
	h, err := Histogram(vals, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 2 { // 0.05 and clamped -1
		t.Fatalf("bin 0 = %d, want 2", h[0])
	}
	if h[1] != 2 {
		t.Fatalf("bin 1 = %d, want 2", h[1])
	}
	if h[9] != 2 { // 0.95 and clamped 2
		t.Fatalf("bin 9 = %d, want 2", h[9])
	}
	if _, err := Histogram(vals, 0, 0, 1); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics, got %v", err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	q, err := Quantile(vals, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	q0, err := Quantile(vals, 0)
	if err != nil || q0 != 1 {
		t.Fatalf("q0 = %v, %v", q0, err)
	}
	q1, err := Quantile(vals, 1)
	if err != nil || q1 != 5 {
		t.Fatalf("q1 = %v, %v", q1, err)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics, got %v", err)
	}
}

func TestLearningEfficiency(t *testing.T) {
	e, err := LearningEfficiency(0.8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.2) > 1e-12 {
		t.Fatalf("efficiency %v, want 0.2 %%/s", e)
	}
	if _, err := LearningEfficiency(0.8, 0); !errors.Is(err, ErrMetrics) {
		t.Fatalf("expected ErrMetrics, got %v", err)
	}
}
