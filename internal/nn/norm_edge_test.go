package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

func TestBatchNormDegenerateBatchOfOne(t *testing.T) {
	// A training forward with batch size 1 must not panic and must use the
	// running statistics, and Backward must produce finite gradients.
	bn, err := NewBatchNorm("bn", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Seed running stats with a few proper batches.
	rng := rand.New(rand.NewSource(1))
	warm := tensor.New(16, 3)
	warm.FillNormal(rng, 2, 1)
	for i := 0; i < 10; i++ {
		bn.Forward(warm, true)
	}
	rm := bn.runMean.Clone()

	single := tensor.New(1, 3)
	single.FillNormal(rng, 2, 1)
	y := bn.Forward(single, true)
	if !y.IsFinite() {
		t.Fatal("degenerate batch produced non-finite output")
	}
	// Running stats must not have been polluted by the undefined batch stats.
	if !bn.runMean.Equal(rm) {
		t.Fatal("batch-of-one forward updated running statistics")
	}
	dy := tensor.New(1, 3)
	dy.Fill(1)
	dx := bn.Backward(dy, true)
	if dx == nil || !dx.IsFinite() {
		t.Fatal("degenerate batch backward not finite")
	}
	// Gamma gradient accumulated (layer is trainable).
	if bn.gamma.Grad().Norm2() == 0 {
		t.Fatal("no gamma gradient from degenerate-batch backward")
	}
}

func TestBatchNormGradCheckDegeneratePath(t *testing.T) {
	// Numeric check of the decoupled backward: loss = Σ y² through a BN in
	// eval-statistics mode (frozen), perturbing the input.
	bn, err := NewBatchNorm("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	warm := tensor.New(32, 2)
	warm.FillNormal(rng, 0, 2)
	bn.Forward(warm, true)
	bn.SetFrozen(true)

	x := tensor.New(1, 2)
	x.FillNormal(rng, 0, 1)
	lossOf := func(in *tensor.Tensor) float64 {
		y := bn.Forward(in, true)
		var s float64
		for _, v := range y.Data() {
			s += float64(v) * float64(v)
		}
		return s
	}
	y := bn.Forward(x, true)
	dy := y.Clone()
	dy.Scale(2)
	dx := bn.Backward(dy, true)

	const eps = 1e-3
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := lossOf(x)
		x.Data()[i] = orig - eps
		down := lossOf(x)
		x.Data()[i] = orig
		numeric := (up - down) / (2 * eps)
		analytic := float64(dx.Data()[i])
		if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("dx[%d]: analytic %.5f numeric %.5f", i, analytic, numeric)
		}
	}
}

func TestSoftmaxPanicsOnBadInput(t *testing.T) {
	check := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
	check("rank1", func() { Softmax(tensor.New(4), 1) })
	check("zero temp", func() { Softmax(tensor.New(1, 4), 0) })
	check("entropy rank", func() { ShannonEntropyRows(tensor.New(4)) })
}

func TestSequentialNestedFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inner1, err := NewDense("i1", 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := NewDense("i2", 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nested := NewSequential("outer", NewSequential("inner", inner1), inner2)
	if nested.Frozen() {
		t.Fatal("fresh container reported frozen")
	}
	inner1.SetFrozen(true)
	if nested.Frozen() {
		t.Fatal("partially frozen container reported fully frozen")
	}
	if got := len(nested.TrainableParams()); got != 2 {
		t.Fatalf("TrainableParams = %d, want 2", got)
	}
	inner2.SetFrozen(true)
	if !nested.Frozen() {
		t.Fatal("fully frozen container not reported frozen")
	}
}

func TestResidualFrozenNoGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b1, err := NewDense("b", 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewDense("s", 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResidual("r", NewSequential("body", b1), NewSequential("short", sc))
	res.SetFrozen(true)
	x := tensor.New(2, 3)
	x.FillNormal(rng, 0, 1)
	y := res.Forward(x, true)
	dy := y.Clone()
	dx := res.Backward(dy, true)
	if dx == nil {
		t.Fatal("frozen residual should still pass dx when requested")
	}
	for _, p := range res.Params() {
		if p.Grad().Norm2() != 0 {
			t.Fatalf("frozen residual accumulated gradient on %q", p.Name)
		}
	}
}

func TestConvNoBiasHasSingleParam(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewConv2D("c", 2, 3, 3, ConvOpts{NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Params()); got != 1 {
		t.Fatalf("NoBias conv has %d params, want 1", got)
	}
	withBias, err := NewConv2D("c2", 2, 3, 3, ConvOpts{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(withBias.Params()); got != 2 {
		t.Fatalf("biased conv has %d params, want 2", got)
	}
}

func TestNewConvRejectsBadOpts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewConv2D("c", 0, 3, 3, ConvOpts{}, rng); err == nil {
		t.Fatal("expected error for inC=0")
	}
	if _, err := NewConv2D("c", 2, 3, 3, ConvOpts{Padding: -1}, rng); err == nil {
		t.Fatal("expected error for negative padding")
	}
	if _, err := NewConv2D("c", 2, 3, 3, ConvOpts{Stride: -2}, rng); err == nil {
		t.Fatal("expected error for negative stride")
	}
}

// TestBatchNormDenseLoopsMatchSpatialLoops pins the two ranks to each other
// where they meet: the same values as (N, C) and as (N, C, 1, 1) must give
// the same bits — outputs, input gradients, parameter gradients and running
// statistics — in training, evaluation and frozen mode, a plane of one
// value being the column it is at rank 2. TestBatchNormMatchesReference
// holds both to the scalar loops. The channel counts leave a tail after a
// whole 8-lane chunk, fill none and fill eight exactly.
func TestBatchNormDenseLoopsMatchSpatialLoops(t *testing.T) {
	for _, mode := range []struct {
		name          string
		train, frozen bool
	}{{"train", true, false}, {"eval", false, false}, {"frozen", true, true}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, c := range []int{7, 13, 64} {
				for _, n := range []int{13, 32} {
					t.Run(fmt.Sprintf("c=%d,n=%d", c, n), func(t *testing.T) {
						checkBatchNormRanksAgree(t, n, c, mode.train, mode.frozen)
					})
				}
			}
		})
	}
}

// checkBatchNormRanksAgree runs two steps of one BatchNorm on (n, c) and on
// (n, c, 1, 1) and compares every output bit for bit.
func checkBatchNormRanksAgree(t *testing.T, n, c int, train, frozen bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	x, dy := tensor.New(n, c), tensor.New(n, c)
	x.FillNormal(rng, 1, 3)
	dy.FillNormal(rng, 0, 1)
	var outs [2][]*tensor.Tensor
	for li, shape := range [][]int{{n, c}, {n, c, 1, 1}} {
		bn, err := NewBatchNorm("bn", c)
		if err != nil {
			t.Fatal(err)
		}
		bn.gamma.W.FillNormal(rand.New(rand.NewSource(5)), 1, 0.5)
		bn.beta.W.FillNormal(rand.New(rand.NewSource(6)), 0, 0.5)
		bn.runMean.FillNormal(rand.New(rand.NewSource(7)), 1, 1)
		bn.SetFrozen(frozen)
		for step := 0; step < 2; step++ {
			y := bn.Forward(x.MustReshape(shape...), train)
			dx := bn.Backward(dy.MustReshape(shape...), true)
			outs[li] = append(outs[li], y.Clone(), dx.Clone())
		}
		outs[li] = append(outs[li], bn.gamma.Grad(), bn.beta.Grad(), bn.runMean, bn.runVar)
	}
	for i := range outs[0] {
		a, b := outs[0][i].Data(), outs[1][i].Data()
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("tensor %d element %d: rank-2 %08x, rank-4 %08x",
					i, j, math.Float32bits(a[j]), math.Float32bits(b[j]))
			}
		}
	}
}
