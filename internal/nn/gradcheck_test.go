package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// gradCheck verifies analytic parameter gradients of model against central
// finite differences of the cross-entropy loss. It checks every parameter
// element for small models.
func gradCheck(t *testing.T, model *Sequential, x *tensor.Tensor, labels []int) {
	t.Helper()
	loss := SoftmaxCrossEntropy{}

	model.ZeroGrads()
	logits := model.Forward(x, true)
	_, dlogits, err := loss.Loss(logits, labels)
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	model.Backward(dlogits, false)

	lossAt := func() float64 {
		out := model.Forward(x, true)
		v, err := loss.Value(out, labels)
		if err != nil {
			t.Fatalf("loss value: %v", err)
		}
		return v
	}

	const eps = 1e-2
	var checked, failed int
	for _, p := range model.Params() {
		for i := 0; i < p.W.Len(); i++ {
			orig := p.W.Data()[i]
			p.W.Data()[i] = orig + eps
			up := lossAt()
			p.W.Data()[i] = orig - eps
			down := lossAt()
			p.W.Data()[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := float64(p.G.Data()[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			checked++
			if diff/scale > 5e-2 {
				failed++
				if failed <= 5 {
					t.Errorf("param %q[%d]: analytic %.6f vs numeric %.6f", p.Name, i, analytic, numeric)
				}
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d gradient entries mismatched", failed, checked)
	}
}

func smallInput(t *testing.T, rng *rand.Rand, shape ...int) *tensor.Tensor {
	t.Helper()
	x := tensor.New(shape...)
	x.FillNormal(rng, 0, 1)
	return x
}

func TestGradCheckDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d1, err := NewDense("fc1", 5, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense("fc2", 7, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", d1, NewReLU("r1"), d2)
	x := smallInput(t, rng, 4, 5)
	gradCheck(t, model, x, []int{0, 2, 1, 0})
}

func TestGradCheckDenseBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d1, err := NewDense("fc1", 6, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNorm("bn1", 8)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense("fc2", 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", d1, bn, NewReLU("r1"), d2)
	x := smallInput(t, rng, 6, 6)
	gradCheck(t, model, x, []int{0, 1, 2, 3, 0, 1})
}

func TestGradCheckConvNet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv, err := NewConv2D("c1", 2, 3, 3, ConvOpts{Stride: 1, Padding: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNorm("bn1", 3)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewDense("fc", 3*6*6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net",
		conv, bn, NewReLU("r1"), NewFlatten("fl"), fc)
	x := smallInput(t, rng, 3, 2, 6, 6)
	gradCheck(t, model, x, []int{0, 1, 2})
}

func TestGradCheckStridedConvNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv, err := NewConv2D("c1", 1, 2, 3, ConvOpts{Stride: 2, Padding: 1, NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewDense("fc", 2*3*3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", conv, NewReLU("r"), NewFlatten("fl"), fc)
	x := smallInput(t, rng, 2, 1, 5, 5)
	gradCheck(t, model, x, []int{0, 1})
}

func TestGradCheckResidualIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d1, err := NewDense("b1", 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	body := NewSequential("body", d1, NewReLU("br"))
	blk := NewResidual("res", body, nil)
	head, err := NewDense("head", 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", blk, head)
	x := smallInput(t, rng, 5, 4)
	gradCheck(t, model, x, []int{0, 1, 2, 0, 1})
}

func TestGradCheckResidualProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b1, err := NewDense("b1", 4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	body := NewSequential("body", b1, NewReLU("br"))
	sc, err := NewDense("sc", 4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	shortcut := NewSequential("short", sc)
	blk := NewResidual("res", body, shortcut)
	head, err := NewDense("head", 6, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", blk, head)
	x := smallInput(t, rng, 4, 4)
	gradCheck(t, model, x, []int{0, 1, 0, 1})
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv, err := NewConv2D("c1", 1, 4, 3, ConvOpts{Padding: 1, NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewDense("fc", 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", conv, NewReLU("r"), NewGlobalAvgPool("gap"), fc)
	x := smallInput(t, rng, 3, 1, 4, 4)
	gradCheck(t, model, x, []int{2, 0, 1})
}

func TestGradCheckTemperatureLoss(t *testing.T) {
	// Gradient of the temperature-scaled loss should also match numerically.
	rng := rand.New(rand.NewSource(8))
	d, err := NewDense("fc", 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential("net", d)
	x := smallInput(t, rng, 3, 4)
	labels := []int{0, 1, 2}
	loss := SoftmaxCrossEntropy{Temperature: 0.5}

	model.ZeroGrads()
	logits := model.Forward(x, true)
	_, dlogits, err := loss.Loss(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	model.Backward(dlogits, false)

	const eps = 1e-2
	p := model.Params()[0]
	for i := 0; i < p.W.Len(); i++ {
		orig := p.W.Data()[i]
		p.W.Data()[i] = orig + eps
		up, _ := loss.Value(model.Forward(x, true), labels)
		p.W.Data()[i] = orig - eps
		down, _ := loss.Value(model.Forward(x, true), labels)
		p.W.Data()[i] = orig
		numeric := (up - down) / (2 * eps)
		analytic := float64(p.G.Data()[i])
		if math.Abs(numeric-analytic) > 5e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("temp loss grad[%d]: analytic %.5f numeric %.5f", i, analytic, numeric)
		}
	}
}
