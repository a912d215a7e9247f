package opt

import (
	"encoding/binary"
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

// referenceStep is SGD.Step as it stood before the one-pass rewrite — a pass
// per operation over each parameter — kept verbatim as the oracle the fused
// loop must match bit for bit. It reads p.G directly, so every reference
// parameter carries an allocated gradient.
func referenceStep(s *SGD) {
	lr := float32(s.cfg.LR)
	mom := float32(s.cfg.Momentum)
	wd := float32(s.cfg.WeightDecay)
	mu := float32(s.cfg.ProxMu)
	for i, p := range s.params {
		g := p.G
		if wd > 0 && !p.NoDecay {
			if err := g.Axpy(wd, p.W); err != nil {
				panic(err)
			}
		}
		if mu > 0 && s.anchor != nil {
			// g += μ (w - w_global)
			gd, wv, av := g.Data(), p.W.Data(), s.anchor[i].Data()
			for j := range gd {
				gd[j] += mu * (wv[j] - av[j])
			}
		}
		v := s.velocity[i]
		if mom > 0 {
			// v = mom*v + g
			vd, gd := v.Data(), g.Data()
			for j := range vd {
				vd[j] = mom*vd[j] + gd[j]
			}
			if s.cfg.Nesterov {
				// w -= lr * (g + mom*v)
				wv := p.W.Data()
				for j := range wv {
					wv[j] -= lr * (gd[j] + mom*vd[j])
				}
			} else {
				if err := p.W.Axpy(-lr, v); err != nil {
					panic(err)
				}
			}
		} else {
			if err := p.W.Axpy(-lr, g); err != nil {
				panic(err)
			}
		}
		g.Zero()
	}
}

// fuzzFloats reads n float32 bit patterns from data, cycling through it (all
// zero when data is empty), so NaN payloads, infinities, -0 and subnormals
// reach the step exactly as the fuzzer writes them.
func fuzzFloats(data []byte, off, n int) []float32 {
	out := make([]float32, n)
	if len(data) < 4 {
		return out
	}
	for i := range out {
		var b [4]byte
		for k := range b {
			b[k] = data[(off+4*i+k)%len(data)]
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return out
}

// FuzzSGDStepMatchesReference holds the one-pass Step to referenceStep over
// three steps of two parameters (one exempt from decay): weights, velocities
// and the zeroed gradients must agree bit for bit, for momentum zero and
// positive, heavy-ball and Nesterov, with and without weight decay and a
// proximal anchor. A NaN matches any NaN: which operand's payload an x86 add
// keeps follows the compiler's operand order, not the arithmetic. The seeds
// plant NaN, ±Inf, -0 and subnormals; lazyG leaves the fused side's first
// gradient unallocated, which must read as zero.
func FuzzSGDStepMatchesReference(f *testing.F) {
	special := func(vs ...float32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(1)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	f.Add(special(1, -2, 0.5, 3), 0.1, 0.5, 0.0, 0.0, false, false, false)
	f.Add(special(2, -1, 0.25, sub), 0.1, 0.0, 0.0, 0.0, false, false, true)
	f.Add(special(negZero, sub, -sub, 1e-30, -1e-30, 7), 0.1, 0.9, 0.01, 0.5, true, true, true)
	f.Add(special(nan, inf, -inf, negZero, 1, sub), 0.5, 0.0, 0.1, 1.0, false, true, false)
	f.Add(special(3e38, -3e38, 1e-38, negZero, 0, 2), 1e-3, 0.99, 5e-4, 0.01, true, false, true)
	f.Fuzz(func(t *testing.T, data []byte, lr, mom, wd, mu float64, nesterov, anchor, lazyG bool) {
		cfg := SGDConfig{LR: lr, Momentum: mom, WeightDecay: wd, Nesterov: nesterov, ProxMu: mu}
		if !(lr > 0) || !(mom >= 0 && mom < 1) || !(wd >= 0) || !(mu >= 0) {
			t.Skip("configuration NewSGD refuses")
		}
		shapes := [][]int{{3, 5}, {4}}
		build := func(lazy bool) (*SGD, []*nn.Param) {
			ps := make([]*nn.Param, len(shapes))
			for i, sh := range shapes {
				n := tensor.Volume(sh)
				ps[i] = &nn.Param{Name: "p", W: tensor.MustFromSlice(fuzzFloats(data, 16*i, n), sh...), NoDecay: i == 1}
				if !lazy || i != 0 {
					ps[i].G = tensor.MustFromSlice(fuzzFloats(data, 16*i+5, n), sh...)
				}
			}
			s, err := NewSGD(cfg, ps)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range s.velocity {
				copy(v.Data(), fuzzFloats(data, 16*i+9, v.Len()))
			}
			if anchor {
				s.SnapshotProxAnchor()
				for i, a := range s.anchor {
					copy(a.Data(), fuzzFloats(data, 16*i+13, a.Len()))
				}
			}
			return s, ps
		}
		fused, got := build(lazyG)
		ref, want := build(false)
		if lazyG {
			want[0].G.Zero()
		}
		same := func(what string, step int, a, b *tensor.Tensor) {
			for j, x := range a.Data() {
				y := b.Data()[j]
				if x != x && y != y {
					continue // NaN either way; which payload survives follows operand order, not arithmetic
				}
				if math.Float32bits(x) != math.Float32bits(y) {
					t.Fatalf("step %d: %s[%d] = %08x, reference %08x", step, what, j, math.Float32bits(x), math.Float32bits(y))
				}
			}
		}
		for step := 0; step < 3; step++ {
			if step > 0 {
				for i := range got {
					g := fuzzFloats(data, 7*step+3*i, got[i].W.Len())
					copy(got[i].G.Data(), g)
					copy(want[i].G.Data(), g)
				}
			}
			fused.Step()
			referenceStep(ref)
			for i := range got {
				same("w", step, got[i].W, want[i].W)
				same("v", step, fused.velocity[i], ref.velocity[i])
				same("g", step, got[i].G, want[i].G)
			}
		}
	})
}
