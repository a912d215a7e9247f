package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedfteds/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := NewDense("fc", 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	// W = [[1,2],[3,4]], b = [10, 20]; y = x Wᵀ + b.
	copy(d.weight.W.Data(), []float32{1, 2, 3, 4})
	copy(d.bias.W.Data(), []float32{10, 20})
	x := tensor.MustFromSlice([]float32{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("Forward = %v, want [13 27]", y.Data())
	}
}

func TestDenseShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := NewDense("fc", 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	d.Forward(tensor.New(1, 4), false)
}

func TestNewDenseRejectsBadDims(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewDense("fc", 0, 2, rng); err == nil {
		t.Fatal("expected error for in=0")
	}
	if _, err := NewDense("fc", 2, -1, rng); err == nil {
		t.Fatal("expected error for out=-1")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 || y.At(0, 2) != 2 {
		t.Fatalf("relu forward: %v", y.Data())
	}
	dy := tensor.MustFromSlice([]float32{5, 5, 5}, 1, 3)
	dx := r.Backward(dy, true)
	if dx.At(0, 0) != 0 || dx.At(0, 1) != 0 || dx.At(0, 2) != 5 {
		t.Fatalf("relu backward: %v", dx.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(10, 7)
	logits.FillNormal(rng, 0, 3)
	for _, temp := range []float64{0.1, 0.5, 1.0, 2.0} {
		p := Softmax(logits, temp)
		for i := 0; i < 10; i++ {
			var s float64
			minv := float32(2)
			for _, v := range p.Row(i).Data() {
				s += float64(v)
				if v < minv {
					minv = v
				}
			}
			if math.Abs(s-1) > 1e-5 {
				t.Fatalf("temp %v row %d sums to %v", temp, i, s)
			}
			if minv < 0 {
				t.Fatalf("negative probability at temp %v", temp)
			}
		}
	}
}

func TestSoftmaxTemperatureHardens(t *testing.T) {
	// For a confident row, lowering the temperature must lower the entropy.
	logits := tensor.MustFromSlice([]float32{2, 1, 0.5, 0}, 1, 4)
	h := func(temp float64) float64 {
		return ShannonEntropyRows(Softmax(logits, temp))[0]
	}
	if !(h(0.1) < h(0.5) && h(0.5) < h(1.0) && h(1.0) < h(5.0)) {
		t.Fatalf("entropy not monotone in temperature: %v %v %v %v", h(0.1), h(0.5), h(1.0), h(5.0))
	}
}

func TestShannonEntropyBounds(t *testing.T) {
	// Uniform distribution maximizes entropy at log C; one-hot gives 0.
	c := 8
	uniform := tensor.New(1, c)
	uniform.Fill(float32(1.0 / float64(c)))
	h := ShannonEntropyRows(uniform)[0]
	if math.Abs(h-math.Log(float64(c))) > 1e-5 {
		t.Fatalf("uniform entropy %v, want %v", h, math.Log(float64(c)))
	}
	onehot := tensor.New(1, c)
	onehot.Set(1, 0, 0)
	if got := ShannonEntropyRows(onehot)[0]; got != 0 {
		t.Fatalf("one-hot entropy %v, want 0", got)
	}
}

func TestQuickEntropyWithinBounds(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		logits := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			// Keep logits in a sane range.
			logits[i] = float32(math.Mod(float64(v), 20))
		}
		lt := tensor.MustFromSlice(logits, 1, len(logits))
		for _, temp := range []float64{0.1, 1.0, 3.0} {
			h := ShannonEntropyRows(Softmax(lt, temp))[0]
			if h < -1e-9 || h > math.Log(float64(len(logits)))+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn, err := NewBatchNorm("bn", 4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(32, 4)
	x.FillNormal(rng, 5, 3)
	y := bn.Forward(x, true)
	// Each output channel should be ~zero-mean unit-variance.
	for c := 0; c < 4; c++ {
		var mean, sq float64
		for i := 0; i < 32; i++ {
			v := float64(y.At(i, c))
			mean += v
			sq += v * v
		}
		mean /= 32
		variance := sq/32 - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean %v", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d variance %v", c, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn, err := NewBatchNorm("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(64, 2)
	x.FillNormal(rng, 2, 1)
	// Several training passes to converge the running stats.
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	y := bn.Forward(x, false)
	var mean float64
	for i := 0; i < 64; i++ {
		mean += float64(y.At(i, 0))
	}
	mean /= 64
	if math.Abs(mean) > 0.1 {
		t.Fatalf("eval-mode mean %v, want ~0 after running-stat convergence", mean)
	}
}

func TestBatchNormFrozenIgnoresBatch(t *testing.T) {
	bn, err := NewBatchNorm("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	bn.SetFrozen(true)
	rm := bn.runMean.Clone()
	x := tensor.New(16, 2)
	x.Fill(7)
	bn.Forward(x, true)
	if !bn.runMean.Equal(rm) {
		t.Fatal("frozen batch norm updated running stats")
	}
}

func TestBatchNorm4DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn, err := NewBatchNorm("bn", 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 4, 4)
	x.FillNormal(rng, 0, 1)
	y := bn.Forward(x, true)
	if got := y.Shape(); got[0] != 2 || got[1] != 3 || got[2] != 4 || got[3] != 4 {
		t.Fatalf("shape %v", got)
	}
}

func TestConvKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, err := NewConv2D("c", 1, 1, 2, ConvOpts{NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel = [[1, 0], [0, 1]]: y = x[i,j] + x[i+1,j+1].
	copy(c.weight.W.Data(), []float32{1, 0, 0, 1})
	x := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(x, false)
	want := []float32{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("conv[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
}

func TestConvOutputShapePadding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := NewConv2D("c", 3, 8, 3, ConvOpts{Stride: 2, Padding: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.OutputShape([]int{3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 8 || out[1] != 4 || out[2] != 4 {
		t.Fatalf("OutputShape = %v, want [8 4 4]", out)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool("g")
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(x, true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap = %v", y.Data())
	}
	dy := tensor.MustFromSlice([]float32{4, 8}, 1, 2)
	dx := g.Backward(dy, true)
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Fatalf("gap backward = %v", dx.Data())
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("fl")
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	dx := f.Backward(y, true)
	if dx.Rank() != 4 || dx.Dim(3) != 5 {
		t.Fatalf("flatten backward shape %v", dx.Shape())
	}
}

func TestSequentialFreezePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d1, err := NewDense("fc1", 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense("fc2", 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", d1, NewReLU("r"), d2)
	d1.SetFrozen(true)

	tp := model.TrainableParams()
	if len(tp) != 2 {
		t.Fatalf("TrainableParams = %d params, want 2 (fc2 weight+bias)", len(tp))
	}

	x := tensor.New(3, 4)
	x.FillNormal(rng, 0, 1)
	model.ZeroGrads()
	logits := model.Forward(x, true)
	_, dl, err := SoftmaxCrossEntropy{}.Loss(logits, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	model.Backward(dl, false)

	// Frozen layer accumulated no gradient.
	for _, p := range d1.Params() {
		if p.Grad().Norm2() != 0 {
			t.Fatalf("frozen param %q has gradient norm %v", p.Name, p.Grad().Norm2())
		}
	}
	// Trainable layer did.
	if model.Params()[2].Grad().Norm2() == 0 {
		t.Fatal("trainable layer has zero gradient")
	}
}

func TestSequentialOutputShapeAndFLOPs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	conv, err := NewConv2D("c", 3, 16, 3, ConvOpts{Padding: 1, NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNorm("bn", 16)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewDense("fc", 16, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", conv, bn, NewReLU("r"), NewGlobalAvgPool("g"), fc)
	out, err := model.OutputShape([]int{3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("OutputShape = %v", out)
	}
	flops := model.FLOPsPerSample([]int{3, 8, 8})
	// Conv dominates: 2*3*9*16*64 = 55296; total must exceed it.
	if flops < 55296 {
		t.Fatalf("FLOPs = %d, want >= 55296", flops)
	}
}

func TestSequentialBuffersCollected(t *testing.T) {
	bn1, err := NewBatchNorm("bn1", 4)
	if err != nil {
		t.Fatal(err)
	}
	bn2, err := NewBatchNorm("bn2", 4)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", bn1, NewReLU("r"), bn2)
	if got := len(model.Buffers()); got != 4 {
		t.Fatalf("Buffers = %d, want 4 (2 BN × mean+var)", got)
	}
}

func TestCrossEntropyRejectsBadLabels(t *testing.T) {
	logits := tensor.New(2, 3)
	if _, _, err := (SoftmaxCrossEntropy{}).Loss(logits, []int{0, 5}); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
	if _, _, err := (SoftmaxCrossEntropy{}).Loss(logits, []int{0}); err == nil {
		t.Fatal("expected error for label count mismatch")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over C classes: loss = log C.
	logits := tensor.New(4, 5)
	v, err := SoftmaxCrossEntropy{}.Value(logits, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Log(5)) > 1e-6 {
		t.Fatalf("uniform CE = %v, want log 5 = %v", v, math.Log(5))
	}
}

func TestResidualForwardIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d, err := NewDense("b", 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Zero body weights: residual output equals input.
	d.weight.W.Zero()
	d.bias.W.Zero()
	blk := NewResidual("res", NewSequential("body", d), nil)
	x := tensor.New(2, 3)
	x.FillNormal(rng, 0, 1)
	y := blk.Forward(x, false)
	if !y.AllClose(x, 1e-6) {
		t.Fatal("zero-body residual != identity")
	}
}
