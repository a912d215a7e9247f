package strategy

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedfteds/internal/opt"
	"fedfteds/internal/tensor"
)

// randomState builds a random tensor list with shapes drawn from rng.
func randomState(rng *rand.Rand) []*tensor.Tensor {
	n := 1 + rng.Intn(5)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		var t *tensor.Tensor
		switch rng.Intn(3) {
		case 0:
			t = tensor.New(1 + rng.Intn(7))
		case 1:
			t = tensor.New(1+rng.Intn(5), 1+rng.Intn(5))
		default:
			t = tensor.New(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
		}
		t.FillNormal(rng, 0, 1)
		out[i] = t
	}
	return out
}

// cloneState deep-copies a tensor list.
func cloneState(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// shippedSpecs is every flag-constructible strategy with its defaults.
var shippedSpecs = []string{"fedavg", "fedprox", "fedavgm", "fedadam", "fedyogi"}

// TestParseRoundTrip pins the flag syntax: every shipped name parses, keeps
// its short name, and renders a stable fingerprint that embeds the
// parameters.
func TestParseRoundTrip(t *testing.T) {
	for _, spec := range shippedSpecs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if s.Name() != spec {
			t.Fatalf("Parse(%q).Name() = %q", spec, s.Name())
		}
		if s.Fingerprint() == "" {
			t.Fatalf("%s: empty fingerprint", spec)
		}
	}

	s, err := Parse("fedadam:lr=0.05,beta1=0.9")
	if err != nil {
		t.Fatal(err)
	}
	fp := s.Fingerprint()
	for _, want := range []string{"fedadam", "lr=0.05", "beta1=0.9", "beta2=0.99", "tau=0.001", "weight=selected"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("fingerprint %q missing %q", fp, want)
		}
	}
	// Edited parameters must change the fingerprint (the resume refusal key).
	s2, err := Parse("fedadam:lr=0.1,beta1=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Fingerprint() == fp {
		t.Fatal("different lr, same fingerprint")
	}
	// Identical specs must agree bit for bit.
	s3, err := Parse("fedadam:lr=0.05,beta1=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if s3.Fingerprint() != fp {
		t.Fatal("same spec, different fingerprint")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",
		"sgd",
		"fedadam:lr",
		"fedadam:lr=abc",
		"fedadam:lr=0.1,lr=0.2",
		"fedadam:gamma=1",
		"fedavg:lr=1",
		"fedprox:mu=0",
		"fedprox:mu=-1",
		"fedprox:mu=NaN",
		"fedprox:mu=+Inf",
		"fedadam:lr=NaN",
		"fedavgm:beta1=nan",
		"fedyogi:tau=-Inf",
		"fedavgm:lr=0",
		"fedavgm:beta1=1",
		"fedadam:beta2=1.5",
		"fedadam:tau=0",
	} {
		if _, err := Parse(spec); !errors.Is(err, ErrStrategy) {
			t.Fatalf("spec %q: got %v, want ErrStrategy", spec, err)
		}
	}
}

// TestFedProxRefusesNonFiniteMu: μ reaches FedProx from a spec and from a
// RoundStart off the wire; neither may carry NaN or an infinity through.
func TestFedProxRefusesNonFiniteMu(t *testing.T) {
	for _, mu := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FedProx(mu); !errors.Is(err, ErrStrategy) {
			t.Fatalf("FedProx(%v): got %v, want ErrStrategy", mu, err)
		}
	}
}

func TestWeightingStrings(t *testing.T) {
	for w, want := range map[Weighting]string{
		WeightBySelected:  "selected",
		WeightByLocalSize: "local-size",
		WeightUniform:     "uniform",
		Weighting(9):      "Weighting(9)",
	} {
		if got := w.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", w, got, want)
		}
	}
}

func TestIsDefault(t *testing.T) {
	if !IsDefault(FedAvg()) {
		t.Fatal("FedAvg() is not the default")
	}
	for _, spec := range []string{"fedprox", "fedavgm", "fedadam", "fedyogi"} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if IsDefault(s) {
			t.Fatalf("%s claims to be the default", spec)
		}
	}
	if IsDefault(nil) {
		t.Fatal("nil claims to be the default")
	}
	nonDefaultWeighting, err := FedAvgWith(WeightUniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	if IsDefault(nonDefaultWeighting) {
		t.Fatal("uniform-weighted fedavg claims to be the default")
	}
}

// TestWeighUpdates pins the weighting rules.
func TestWeighUpdates(t *testing.T) {
	ups := []Update{
		{ClientID: 0, NumSelected: 3, LocalSize: 10},
		{ClientID: 1, NumSelected: 7, LocalSize: 20},
	}
	w := make([]float64, 2)
	for _, tt := range []struct {
		weighting Weighting
		want      [2]float64
	}{
		{WeightBySelected, [2]float64{3, 7}},
		{WeightByLocalSize, [2]float64{10, 20}},
		{WeightUniform, [2]float64{1, 1}},
	} {
		s, err := FedAvgWith(tt.weighting, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WeighUpdates(ups, w); err != nil {
			t.Fatal(err)
		}
		if w[0] != tt.want[0] || w[1] != tt.want[1] {
			t.Fatalf("%v: got %v, want %v", tt.weighting, w, tt.want)
		}
	}
	s := FedAvg()
	if err := s.WeighUpdates(ups, w[:1]); err == nil {
		t.Fatal("mismatched weight slice accepted")
	}
}

// TestApplyAggregateProperties is the shipped-strategy property test: for
// random shapes and seeds, ApplyAggregate preserves every tensor shape, is
// deterministic for a fixed seed (two fresh strategies fed the same
// sequence agree bit for bit), and fedavg reproduces plain averaging
// exactly.
func TestApplyAggregateProperties(t *testing.T) {
	for _, spec := range shippedSpecs {
		t.Run(spec, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				seed := int64(1000*trial + 7)
				rng := rand.New(rand.NewSource(seed))
				global := randomState(rng)
				rounds := 1 + rng.Intn(4)
				avgs := make([][]*tensor.Tensor, rounds)
				for r := range avgs {
					avgs[r] = make([]*tensor.Tensor, len(global))
					for i, g := range global {
						a := tensor.New(g.Shape()...)
						a.FillNormal(rng, 0, 1)
						avgs[r][i] = a
					}
				}

				run := func() []*tensor.Tensor {
					s, err := Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					st := cloneState(global)
					for r := 0; r < rounds; r++ {
						if err := s.ApplyAggregate(st, avgs[r]); err != nil {
							t.Fatalf("trial %d round %d: %v", trial, r, err)
						}
					}
					return st
				}
				a, b := run(), run()
				for i := range a {
					if !a[i].SameShape(global[i]) {
						t.Fatalf("trial %d: tensor %d shape %v, want %v",
							trial, i, a[i].Shape(), global[i].Shape())
					}
					if !a[i].Equal(b[i]) {
						t.Fatalf("trial %d: nondeterministic aggregate at tensor %d", trial, i)
					}
					if spec == "fedavg" || spec == "fedprox" {
						// The overwrite server must reproduce the plain
						// average of the last round exactly.
						if !a[i].Equal(avgs[rounds-1][i]) {
							t.Fatalf("trial %d: %s tensor %d is not the plain average", trial, spec, i)
						}
					}
				}
			}
		})
	}
}

// TestFedAdamOneStepReference pins fedadam's first ApplyAggregate against a
// hand-computed reference: with w = [2], avg = [1], lr = 0.5, β₁ = 0.5,
// β₂ = 0.75, τ = 0.1 and zero-initialized moments,
//
//	g  = 2 − 1            = 1
//	m  = 0.5·0 + 0.5·1    = 0.5
//	v  = 0.75·0 + 0.25·1  = 0.25
//	w' = 2 − 0.5·0.5/(√0.25 + 0.1) = 2 − 0.25/0.6 = 2 − 5/12
func TestFedAdamOneStepReference(t *testing.T) {
	s, err := FedAdam(0.5, 0.5, 0.75, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	global := []*tensor.Tensor{tensor.New(1)}
	global[0].Data()[0] = 2
	avg := []*tensor.Tensor{tensor.New(1)}
	avg[0].Data()[0] = 1
	if err := s.ApplyAggregate(global, avg); err != nil {
		t.Fatal(err)
	}
	want := float32(2) - float32(0.5)*float32(0.5)/(float32(math.Sqrt(0.25))+float32(0.1))
	if got := global[0].Data()[0]; got != want {
		t.Fatalf("fedadam one-step output %v, want %v", got, want)
	}

	// And the same setting under yogi: v starts at 0, so
	// v' = 0 − 0.25·g²·sign(0 − g²) = +0.25 — identical to adam here.
	y, err := FedYogi(0.5, 0.5, 0.75, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	global[0].Data()[0] = 2
	if err := y.ApplyAggregate(global, avg); err != nil {
		t.Fatal(err)
	}
	if got := global[0].Data()[0]; got != want {
		t.Fatalf("fedyogi one-step output %v, want %v", got, want)
	}
}

// TestFedAvgMOneStepReference pins server momentum: lr = 1, β = 0 must
// reproduce the overwrite exactly, and β > 0 accumulates velocity.
func TestFedAvgMOneStepReference(t *testing.T) {
	s, err := FedAvgM(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	global := []*tensor.Tensor{tensor.New(2)}
	copy(global[0].Data(), []float32{3, -1})
	avg := []*tensor.Tensor{tensor.New(2)}
	copy(avg[0].Data(), []float32{1, 1})
	if err := s.ApplyAggregate(global, avg); err != nil {
		t.Fatal(err)
	}
	if d := global[0].Data(); d[0] != 1 || d[1] != 1 {
		t.Fatalf("lr=1, beta=0 did not overwrite: %v", d)
	}

	// Two identical pseudo-gradients under β = 0.5: v₁ = g, v₂ = 1.5·g.
	m, err := FedAvgM(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// w₀=4, avg=3 ⇒ g=1, v=1, w=3; then avg=2 ⇒ g=1, v=1.5, w=1.5.
	g2 := []*tensor.Tensor{tensor.New(1)}
	g2[0].Data()[0] = 4
	avg1 := []*tensor.Tensor{tensor.New(1)}
	avg1[0].Data()[0] = 3
	if err := m.ApplyAggregate(g2, avg1); err != nil {
		t.Fatal(err)
	}
	if got := g2[0].Data()[0]; got != 3 {
		t.Fatalf("after round 1: %v, want 3", got)
	}
	avg2 := []*tensor.Tensor{tensor.New(1)}
	avg2[0].Data()[0] = 2
	if err := m.ApplyAggregate(g2, avg2); err != nil {
		t.Fatal(err)
	}
	if got := g2[0].Data()[0]; got != 1.5 {
		t.Fatalf("after round 2: %v, want 1.5", got)
	}
}

// TestStatefulRoundTrip pins the checkpoint contract: StateTensors after a
// few rounds restores into a fresh strategy that then continues
// bit-identically — including a restore before the fresh strategy ever saw
// the model shapes (the warm-start path).
func TestStatefulRoundTrip(t *testing.T) {
	for _, spec := range []string{"fedavgm", "fedadam", "fedyogi"} {
		t.Run(spec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			global := randomState(rng)
			mkAvg := func() []*tensor.Tensor {
				out := make([]*tensor.Tensor, len(global))
				for i, g := range global {
					a := tensor.New(g.Shape()...)
					a.FillNormal(rng, 0, 1)
					out[i] = a
				}
				return out
			}
			avgs := [][]*tensor.Tensor{mkAvg(), mkAvg(), mkAvg()}

			full, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			fullState := cloneState(global)
			if err := full.ApplyAggregate(fullState, avgs[0]); err != nil {
				t.Fatal(err)
			}
			snapshotModel := cloneState(fullState)
			snap := cloneState(full.(Stateful).StateTensors())
			if len(snap) == 0 {
				t.Fatalf("%s: no state after one aggregate", spec)
			}
			for _, a := range avgs[1:] {
				if err := full.ApplyAggregate(fullState, a); err != nil {
					t.Fatal(err)
				}
			}

			resumed, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.(Stateful).RestoreStateTensors(snap); err != nil {
				t.Fatal(err)
			}
			resumedState := snapshotModel
			for _, a := range avgs[1:] {
				if err := resumed.ApplyAggregate(resumedState, a); err != nil {
					t.Fatal(err)
				}
			}
			for i := range fullState {
				if !fullState[i].Equal(resumedState[i]) {
					t.Fatalf("%s: resumed aggregate diverged at tensor %d", spec, i)
				}
			}

			// A wrong-shaped restore is refused at the next apply.
			bad, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := bad.(Stateful).RestoreStateTensors(snap[:len(snap)-1]); err == nil {
				if err := bad.ApplyAggregate(cloneState(global), avgs[0]); err == nil {
					t.Fatal("truncated state accepted")
				}
			}
		})
	}
}

// TestProxHook pins the FedProx local hook: it tunes μ into the optimizer
// configuration and snapshots the proximal anchor at bind.
func TestProxHook(t *testing.T) {
	s, err := Parse("fedprox:mu=0.25")
	if err != nil {
		t.Fatal(err)
	}
	hook := s.LocalHook()
	if hook == nil {
		t.Fatal("fedprox has no local hook")
	}
	cfg := opt.SGDConfig{LR: 0.1}
	hook.TuneSGD(&cfg)
	if cfg.ProxMu != 0.25 {
		t.Fatalf("hook tuned ProxMu to %v", cfg.ProxMu)
	}
	for _, other := range []string{"fedavg", "fedavgm", "fedadam", "fedyogi"} {
		o, err := Parse(other)
		if err != nil {
			t.Fatal(err)
		}
		if o.LocalHook() != nil {
			t.Fatalf("%s unexpectedly carries a local hook", other)
		}
	}
}

// TestNewValidation covers the composite constructor's refusals.
func TestNewValidation(t *testing.T) {
	if _, err := New("", WeightBySelected, opt.Overwrite{}, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New("x", Weighting(0), opt.Overwrite{}, nil); err == nil {
		t.Fatal("invalid weighting accepted")
	}
	if _, err := New("x", WeightBySelected, nil, nil); err == nil {
		t.Fatal("nil server optimizer accepted")
	}
}
