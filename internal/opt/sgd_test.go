package opt

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// quadParam builds a single 1-element parameter with value v.
func quadParam(v float32) *nn.Param {
	w := tensor.MustFromSlice([]float32{v}, 1)
	return &nn.Param{Name: "w", W: w, G: tensor.New(1)}
}

func TestNewSGDValidation(t *testing.T) {
	p := quadParam(1)
	tests := []struct {
		name string
		cfg  SGDConfig
	}{
		{name: "zero lr", cfg: SGDConfig{LR: 0}},
		{name: "negative lr", cfg: SGDConfig{LR: -1}},
		{name: "momentum 1", cfg: SGDConfig{LR: 0.1, Momentum: 1}},
		{name: "negative wd", cfg: SGDConfig{LR: 0.1, WeightDecay: -1}},
		{name: "negative mu", cfg: SGDConfig{LR: 0.1, ProxMu: -0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSGD(tt.cfg, []*nn.Param{p}); !errors.Is(err, ErrConfig) {
				t.Fatalf("expected ErrConfig, got %v", err)
			}
		})
	}
}

func TestSGDMinimizesQuadratic(t *testing.T) {
	// f(w) = (w-3)²/2, grad = w-3; plain SGD should converge to 3.
	p := quadParam(0)
	s, err := NewSGD(SGDConfig{LR: 0.1}, []*nn.Param{p})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p.G.Data()[0] = p.W.Data()[0] - 3
		s.Step()
	}
	if got := p.W.Data()[0]; math.Abs(float64(got)-3) > 1e-3 {
		t.Fatalf("converged to %v, want 3", got)
	}
}

func TestSGDMomentumMatchesManualUpdate(t *testing.T) {
	p := quadParam(1)
	s, err := NewSGD(SGDConfig{LR: 0.5, Momentum: 0.9}, []*nn.Param{p})
	if err != nil {
		t.Fatal(err)
	}
	// Two steps with constant gradient 1:
	// v1 = 1,        w1 = 1 - 0.5*1   = 0.5
	// v2 = 0.9 + 1,  w2 = 0.5 - 0.95  = -0.45
	p.G.Data()[0] = 1
	s.Step()
	if got := p.W.Data()[0]; math.Abs(float64(got)-0.5) > 1e-6 {
		t.Fatalf("after step 1: %v, want 0.5", got)
	}
	p.G.Data()[0] = 1
	s.Step()
	if got := p.W.Data()[0]; math.Abs(float64(got)+0.45) > 1e-6 {
		t.Fatalf("after step 2: %v, want -0.45", got)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := quadParam(2)
	s, err := NewSGD(SGDConfig{LR: 0.1, WeightDecay: 0.5}, []*nn.Param{p})
	if err != nil {
		t.Fatal(err)
	}
	// Zero task gradient: w ← w - lr*wd*w = 2 - 0.1*0.5*2 = 1.9.
	s.Step()
	if got := p.W.Data()[0]; math.Abs(float64(got)-1.9) > 1e-6 {
		t.Fatalf("w = %v, want 1.9", got)
	}
}

func TestSGDNoDecayRespected(t *testing.T) {
	p := quadParam(2)
	p.NoDecay = true
	s, err := NewSGD(SGDConfig{LR: 0.1, WeightDecay: 0.5}, []*nn.Param{p})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if got := p.W.Data()[0]; got != 2 {
		t.Fatalf("NoDecay param changed to %v", got)
	}
}

func TestSGDProximalPullsTowardAnchor(t *testing.T) {
	p := quadParam(0)
	s, err := NewSGD(SGDConfig{LR: 0.1, ProxMu: 1.0}, []*nn.Param{p})
	if err != nil {
		t.Fatal(err)
	}
	s.SnapshotProxAnchor() // anchor at w = 0
	p.W.Data()[0] = 5
	// Zero task gradient: proximal term alone pulls w toward 0.
	for i := 0; i < 100; i++ {
		s.Step()
	}
	if got := p.W.Data()[0]; math.Abs(float64(got)) > 1e-3 {
		t.Fatalf("w = %v, want ~0 under proximal pull", got)
	}
}

func TestSGDStepZeroesGradients(t *testing.T) {
	p := quadParam(1)
	s, err := NewSGD(SGDConfig{LR: 0.1}, []*nn.Param{p})
	if err != nil {
		t.Fatal(err)
	}
	p.G.Data()[0] = 7
	s.Step()
	if p.G.Data()[0] != 0 {
		t.Fatal("Step did not zero gradients")
	}
}

func TestSGDNesterovDiffersFromHeavyBall(t *testing.T) {
	mk := func(nesterov bool) float32 {
		p := quadParam(1)
		s, err := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9, Nesterov: nesterov}, []*nn.Param{p})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p.G.Data()[0] = 1
			s.Step()
		}
		return p.W.Data()[0]
	}
	if mk(true) == mk(false) {
		t.Fatal("Nesterov and heavy-ball updates are identical")
	}
}

func TestSGDTrainsRealModel(t *testing.T) {
	// End-to-end: a dense net fits a separable 2-class problem.
	rng := rand.New(rand.NewSource(1))
	d1, err := nn.NewDense("fc1", 2, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := nn.NewDense("fc2", 16, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := nn.NewSequential("net", d1, nn.NewReLU("r"), d2)
	s, err := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.5}, model.Params())
	if err != nil {
		t.Fatal(err)
	}

	n := 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		cx := float32(2*cls - 1) // -1 or +1
		x.Set(cx+0.3*float32(rng.NormFloat64()), i, 0)
		x.Set(0.3*float32(rng.NormFloat64()), i, 1)
	}
	loss := nn.SoftmaxCrossEntropy{}
	var last float64
	for epoch := 0; epoch < 60; epoch++ {
		logits := model.Forward(x, true)
		v, dl, err := loss.Loss(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		model.Backward(dl, false)
		s.Step()
		last = v
	}
	if last > 0.1 {
		t.Fatalf("final loss %v, want < 0.1 on separable data", last)
	}
}
