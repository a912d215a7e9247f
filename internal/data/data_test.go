package data

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedfteds/internal/tensor"
)

func testDataset(t *testing.T, n, dim, classes int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(n, dim)
	x.FillNormal(rng, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = i % classes
	}
	ds, err := NewDataset(x, y, classes)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	x := tensor.New(4, 3)
	tests := []struct {
		name    string
		x       *tensor.Tensor
		y       []int
		classes int
	}{
		{name: "label count", x: x, y: []int{0, 1}, classes: 2},
		{name: "one class", x: x, y: []int{0, 0, 0, 0}, classes: 1},
		{name: "label range", x: x, y: []int{0, 1, 2, 5}, classes: 3},
		{name: "rank 1", x: tensor.New(4), y: []int{0, 1, 0, 1}, classes: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewDataset(tt.x, tt.y, tt.classes); !errors.Is(err, ErrData) {
				t.Fatalf("expected ErrData, got %v", err)
			}
		})
	}
}

func TestSubsetCopiesData(t *testing.T) {
	ds := testDataset(t, 10, 4, 3)
	sub, err := ds.Subset([]int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if sub.Y[0] != 1 || sub.Y[1] != 0 || sub.Y[2] != 2 {
		t.Fatalf("subset labels %v", sub.Y)
	}
	// Mutating the subset must not touch the original.
	orig := ds.X.At(1, 0)
	sub.X.Set(999, 0, 0)
	if ds.X.At(1, 0) != orig {
		t.Fatal("Subset shares storage with parent")
	}
	if _, err := ds.Subset([]int{42}); !errors.Is(err, ErrData) {
		t.Fatalf("expected ErrData on out-of-range, got %v", err)
	}
}

func TestSplit(t *testing.T) {
	ds := testDataset(t, 10, 2, 2)
	head, tail, err := ds.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	if head.Len() != 4 || tail.Len() != 6 {
		t.Fatalf("split %d/%d", head.Len(), tail.Len())
	}
	if _, _, err := ds.Split(11); !errors.Is(err, ErrData) {
		t.Fatalf("expected ErrData, got %v", err)
	}
}

func TestBatchesCoverAll(t *testing.T) {
	ds := testDataset(t, 23, 3, 4)
	batches, err := ds.Batches(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("%d batches, want 3", len(batches))
	}
	total := 0
	for _, b := range batches {
		total += len(b.Y)
	}
	if total != 23 {
		t.Fatalf("batches cover %d samples", total)
	}
	if _, err := ds.Batches(0, nil); !errors.Is(err, ErrData) {
		t.Fatalf("expected ErrData for batch size 0, got %v", err)
	}
}

func TestUniverseValidation(t *testing.T) {
	if _, err := NewUniverse(1, 8, 1); !errors.Is(err, ErrData) {
		t.Fatalf("expected ErrData, got %v", err)
	}
	if _, err := NewUniverse(8, 4, 1); !errors.Is(err, ErrData) {
		t.Fatalf("expected ErrData for obs < latent, got %v", err)
	}
}

func TestDomainGenerateBalanced(t *testing.T) {
	suite, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ds, err := suite.Target10.GenerateBalanced(200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 200 || ds.NumClasses != 10 {
		t.Fatalf("len=%d classes=%d", ds.Len(), ds.NumClasses)
	}
	hist := ds.ClassHistogram()
	for c, cnt := range hist {
		if cnt != 20 {
			t.Fatalf("class %d has %d samples, want 20", c, cnt)
		}
	}
	if !ds.X.IsFinite() {
		t.Fatal("generated non-finite features")
	}
}

func TestDomainDeterministicPrototypes(t *testing.T) {
	s1, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	ds1, err := s1.Target10.GenerateBalanced(50, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := s2.Target10.GenerateBalanced(50, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !ds1.X.Equal(ds2.X) {
		t.Fatal("same seeds produced different data")
	}
}

func TestDomainClassesAreSeparable(t *testing.T) {
	// Same-class samples must be closer on average than cross-class samples,
	// otherwise no model can learn the task.
	suite, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	ds, err := suite.Target10.GenerateBalanced(400, rng)
	if err != nil {
		t.Fatal(err)
	}
	dim := ds.SampleShape()[0]
	dist := func(i, j int) float64 {
		var s float64
		xi := ds.X.Data()[i*dim : (i+1)*dim]
		xj := ds.X.Data()[j*dim : (j+1)*dim]
		for k := range xi {
			d := float64(xi[k] - xj[k])
			s += d * d
		}
		return math.Sqrt(s)
	}
	var same, cross float64
	var ns, nc int
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if ds.Y[i] == ds.Y[j] {
				same += dist(i, j)
				ns++
			} else {
				cross += dist(i, j)
				nc++
			}
		}
	}
	same /= float64(ns)
	cross /= float64(nc)
	if same >= cross {
		t.Fatalf("same-class distance %.3f >= cross-class %.3f: domain not separable", same, cross)
	}
}

func TestFarDomainDiffersFromClose(t *testing.T) {
	// The far domain's per-dimension distortion must shift its feature
	// statistics visibly away from the close domains'.
	suite, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	near, err := suite.Target10.GenerateBalanced(600, rng)
	if err != nil {
		t.Fatal(err)
	}
	far, err := suite.Far.GenerateBalanced(600, rng)
	if err != nil {
		t.Fatal(err)
	}
	dim := near.SampleShape()[0]
	meanOf := func(ds *Dataset) []float64 {
		out := make([]float64, dim)
		for i := 0; i < ds.Len(); i++ {
			row := ds.X.Data()[i*dim : (i+1)*dim]
			for o, v := range row {
				out[o] += float64(v)
			}
		}
		for o := range out {
			out[o] /= float64(ds.Len())
		}
		return out
	}
	mn, mf := meanOf(near), meanOf(far)
	var gap float64
	for o := range mn {
		gap += math.Abs(mn[o] - mf[o])
	}
	gap /= float64(dim)
	if gap < 0.05 {
		t.Fatalf("mean per-dimension gap %v between near and far domains, want >= 0.05", gap)
	}
}

func TestGenerateWithLabelsRejectsBadLabel(t *testing.T) {
	suite, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = suite.Target10.GenerateWithLabels([]int{0, 99}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, ErrData) {
		t.Fatalf("expected ErrData, got %v", err)
	}
}

func TestLabelNoiseApplied(t *testing.T) {
	suite, err := NewStandardSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewDomain(suite.Universe, DomainSpec{
		Name: "noisy", NumClasses: 10,
		PrototypeSpread: 1, LatentNoise: 0.1, ObsNoise: 0.1,
		LabelNoise: 0.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, 1000)
	ds, err := noisy.GenerateWithLabels(labels, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var flipped int
	for _, y := range ds.Y {
		if y != 0 {
			flipped++
		}
	}
	// 50% noise, 9/10 of redraws land off-class: expect ~450 flips.
	if flipped < 300 || flipped > 600 {
		t.Fatalf("flipped %d of 1000, want ~450", flipped)
	}
}

func TestNewDomainValidation(t *testing.T) {
	u, err := NewUniverse(8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []DomainSpec{
		{Name: "c", NumClasses: 1, PrototypeSpread: 1},
		{Name: "s", NumClasses: 4, PrototypeSpread: 0},
		{Name: "h", NumClasses: 4, PrototypeSpread: 1, HardFraction: 1.5},
		{Name: "l", NumClasses: 4, PrototypeSpread: 1, LabelNoise: -0.1},
	}
	for _, spec := range bad {
		if _, err := NewDomain(u, spec); !errors.Is(err, ErrData) {
			t.Fatalf("spec %q: expected ErrData, got %v", spec.Name, err)
		}
	}
}

func TestQuickSubsetPreservesLabels(t *testing.T) {
	ds := testDataset(t, 50, 4, 5)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		idx := make([]int, len(raw))
		for i, r := range raw {
			idx[i] = int(r) % 50
		}
		sub, err := ds.Subset(idx)
		if err != nil {
			return false
		}
		for i, id := range idx {
			if sub.Y[i] != ds.Y[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
