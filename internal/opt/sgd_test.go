package opt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/models"
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
		{name: "nan lr", cfg: SGDConfig{LR: math.NaN()}},
		{name: "inf lr", cfg: SGDConfig{LR: math.Inf(1)}},
		{name: "momentum 1", cfg: SGDConfig{LR: 0.1, Momentum: 1}},
		{name: "nan momentum", cfg: SGDConfig{LR: 0.1, Momentum: math.NaN()}},
		{name: "negative mu", cfg: SGDConfig{LR: 0.1, ProxMu: -0.5}},
		{name: "nan mu", cfg: SGDConfig{LR: 0.1, ProxMu: math.NaN()}},
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
// per operation over each parameter — kept as the oracle the fused loop must
// match bit for bit, with each product that feeds an add written
// float32(a*b) as in the kernels, so no target fuses it. It reads p.G
// directly, so every reference parameter carries an allocated gradient.
func referenceStep(s *SGD) {
	lr := float32(s.cfg.LR)
	mom := float32(s.cfg.Momentum)
	mu := float32(s.cfg.ProxMu)
	for i, p := range s.params {
		g := p.G
		if mu > 0 && s.anchor != nil {
			// g += μ (w - w_global)
			gd, wv, av := g.Data(), p.W.Data(), s.anchor[i].Data()
			for j := range gd {
				gd[j] += float32(mu * (wv[j] - av[j]))
			}
		}
		v := s.velocity[i]
		if mom > 0 {
			// v = mom*v + g
			vd, gd := v.Data(), g.Data()
			for j := range vd {
				vd[j] = float32(mom*vd[j]) + gd[j]
			}
			if err := p.W.Axpy(-lr, v); err != nil {
				panic(err)
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
// three steps of ten parameters, whose sizes give the lane kernels' 8-lane
// body and every tail length, 0-7, to run: weights, velocities and the zeroed
// gradients must agree bit for bit, for momentum zero and positive, with and
// without a proximal anchor. A NaN matches any NaN: which operand's payload an x86 add
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
	f.Add(special(1, -2, 0.5, 3), 0.1, 0.5, 0.0, false, false)
	f.Add(special(2, -1, 0.25, sub), 0.1, 0.0, 0.0, false, true)
	f.Add(special(negZero, sub, -sub, 1e-30, -1e-30, 7), 0.1, 0.9, 0.5, true, true)
	f.Add(special(nan, inf, -inf, negZero, 1, sub), 0.5, 0.0, 1.0, true, false)
	f.Add(special(3e38, -3e38, 1e-38, negZero, 0, 2), 1e-3, 0.99, 0.01, true, true)
	f.Add(special(1.1, -2.3, 0.7, 3.9, 1e-3, -5), 0.1, 0.9, 0.0, false, false)
	f.Fuzz(func(t *testing.T, data []byte, lr, mom, mu float64, anchor, lazyG bool) {
		cfg := SGDConfig{LR: lr, Momentum: mom, ProxMu: mu}
		if !(lr > 0) || math.IsInf(lr, 1) || !(mom >= 0 && mom < 1) || !(mu >= 0) {
			t.Skip("configuration NewSGD refuses")
		}
		shapes := [][]int{{3, 5}, {4}, {3, 21}, {37}, {2, 8}, {17}, {2, 9}, {19}, {4, 5}, {22}}
		build := func(lazy bool) (*SGD, []*nn.Param) {
			ps := make([]*nn.Param, len(shapes))
			for i, sh := range shapes {
				n := tensor.Volume(sh)
				ps[i] = &nn.Param{Name: "p", W: tensor.MustFromSlice(fuzzFloats(data, 16*i, n), sh...)}
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

// BenchmarkSGDStep times one Step over every trainable parameter of the
// 64-wide and the 512-wide experiment MLP in each optimizer mode. Bytes
// count the weight, gradient and velocity streams read and written, and the
// anchor read.
func BenchmarkSGDStep(b *testing.B) {
	modes := []struct {
		name    string
		cfg     SGDConfig
		streams int
	}{
		{"plain", SGDConfig{LR: 0.05}, 4},
		{"momentum", SGDConfig{LR: 0.05, Momentum: 0.5}, 6},
		{"prox", SGDConfig{LR: 0.05, Momentum: 0.5, ProxMu: 0.01}, 7},
	}
	for _, hidden := range []int{64, 512} {
		m, err := models.Build(models.Spec{Arch: models.ArchMLP, InputShape: []int{64}, NumClasses: 10, Hidden: hidden, InitSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		params := m.TrainableParams()
		n := 0
		for _, p := range params {
			n += p.W.Len()
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/hidden%d", mode.name, hidden), func(b *testing.B) {
				s, err := NewSGD(mode.cfg, params)
				if err != nil {
					b.Fatal(err)
				}
				s.SnapshotProxAnchor()
				b.SetBytes(int64(4 * mode.streams * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
				}
			})
		}
	}
}
