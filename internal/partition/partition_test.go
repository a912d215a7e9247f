package partition

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// balancedLabels returns n labels cycling through numClasses.
func balancedLabels(n, numClasses int) []int {
	y := make([]int, n)
	for i := range y {
		y[i] = i % numClasses
	}
	return y
}

// assertExactCover fails unless parts form a partition of [0, n).
func assertExactCover(t *testing.T, parts [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	total := 0
	for _, part := range parts {
		for _, idx := range part {
			if idx < 0 || idx >= n {
				t.Fatalf("index %d out of range", idx)
			}
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("assigned %d of %d samples", total, n)
	}
}

func TestDirichletCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	labels := balancedLabels(500, 10)
	parts, err := Dirichlet(labels, 10, 0.5, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	assertExactCover(t, parts, 500)
	for i, p := range parts {
		if len(p) < 5 {
			t.Fatalf("client %d has %d samples, below minSize", i, len(p))
		}
	}
}

func TestDirichletHeterogeneityOrdering(t *testing.T) {
	// Smaller alpha must yield stronger label skew (higher MeanMaxClassShare).
	labels := balancedLabels(2000, 10)
	share := func(alpha float64) float64 {
		rng := rand.New(rand.NewSource(3))
		parts, err := Dirichlet(labels, 10, alpha, 10, rng)
		if err != nil {
			t.Fatalf("alpha %v: %v", alpha, err)
		}
		return ComputeStats(labels, parts, 10).MeanMaxClassShare
	}
	s01, s05, s5 := share(0.1), share(0.5), share(5.0)
	if !(s01 > s05 && s05 > s5) {
		t.Fatalf("heterogeneity not monotone in alpha: %v %v %v", s01, s05, s5)
	}
	// IID-ish at large alpha: max share near 1/10 (loose bound 0.3).
	if s5 > 0.3 {
		t.Fatalf("alpha=5 max share %v, want near 0.1", s5)
	}
	// Strong skew at alpha=0.1.
	if s01 < 0.4 {
		t.Fatalf("alpha=0.1 max share %v, want > 0.4", s01)
	}
}

func TestDirichletValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	labels := balancedLabels(100, 5)
	tests := []struct {
		name    string
		labels  []int
		clients int
		alpha   float64
		minSize int
	}{
		{name: "zero alpha", labels: labels, clients: 5, alpha: 0, minSize: 0},
		{name: "no labels", labels: nil, clients: 5, alpha: 1, minSize: 0},
		{name: "too many clients", labels: labels, clients: 200, alpha: 1, minSize: 0},
		{name: "infeasible minsize", labels: labels, clients: 5, alpha: 1, minSize: 50},
		{name: "negative label", labels: []int{0, -1, 2}, clients: 2, alpha: 1, minSize: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Dirichlet(tt.labels, tt.clients, tt.alpha, tt.minSize, rng); !errors.Is(err, ErrPartition) {
				t.Fatalf("expected ErrPartition, got %v", err)
			}
		})
	}
}

func TestDirichletDeterministic(t *testing.T) {
	labels := balancedLabels(300, 10)
	p1, err := Dirichlet(labels, 5, 0.5, 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Dirichlet(labels, 5, 0.5, 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for c := range p1 {
		if len(p1[c]) != len(p2[c]) {
			t.Fatalf("client %d sizes differ", c)
		}
		for i := range p1[c] {
			if p1[c][i] != p2[c][i] {
				t.Fatalf("client %d index %d differs", c, i)
			}
		}
	}
}

func TestComputeStatsSingleClassClients(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	parts := [][]int{{0, 1}, {2, 3}}
	st := ComputeStats(labels, parts, 2)
	if st.MeanMaxClassShare != 1.0 {
		t.Fatalf("single-class clients share %v, want 1", st.MeanMaxClassShare)
	}
	if st.Sizes[0] != 2 || st.Sizes[1] != 2 {
		t.Fatalf("sizes %v", st.Sizes)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	// Gamma(k, 1) has mean k and variance k.
	rng := rand.New(rand.NewSource(6))
	for _, shape := range []float64{0.1, 0.5, 1.0, 3.0} {
		n := 20000
		var sum, sq float64
		for i := 0; i < n; i++ {
			g := GammaSample(shape, rng)
			if g < 0 {
				t.Fatalf("negative gamma sample %v at shape %v", g, shape)
			}
			sum += g
			sq += g * g
		}
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if mean < shape*0.9 || mean > shape*1.1 {
			t.Fatalf("shape %v: mean %v", shape, mean)
		}
		if variance < shape*0.8 || variance > shape*1.25 {
			t.Fatalf("shape %v: variance %v", shape, variance)
		}
	}
}

func TestQuickDirichletAlwaysPartitions(t *testing.T) {
	f := func(seed int64, alphaRaw uint8) bool {
		alpha := 0.05 + float64(alphaRaw%40)/10 // [0.05, 4.0]
		labels := balancedLabels(200, 5)
		parts, err := Dirichlet(labels, 4, alpha, 1, rand.New(rand.NewSource(seed)))
		if err != nil {
			// Acceptable only when resampling exhausted; treat as failure to
			// surface flakiness.
			return false
		}
		seen := make([]bool, 200)
		total := 0
		for _, p := range parts {
			for _, idx := range p {
				if seen[idx] {
					return false
				}
				seen[idx] = true
				total++
			}
		}
		return total == 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
