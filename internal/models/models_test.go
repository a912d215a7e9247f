package models

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/tensor"
)

func mlpSpec() Spec {
	return Spec{
		Arch:       ArchMLP,
		InputShape: []int{16},
		NumClasses: 5,
		Hidden:     24,
		InitSeed:   1,
	}
}

func wrnSpec() Spec {
	return Spec{
		Arch:        ArchWRN,
		InputShape:  []int{3, 8, 8},
		NumClasses:  4,
		Depth:       16,
		WidthFactor: 1,
		InitSeed:    2,
	}
}

func TestBuildMLPShapes(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 5 {
		t.Fatalf("OutputShape = %v, want [5]", out)
	}
	x := tensor.New(3, 16)
	y := m.Forward(x, false)
	if y.Dim(0) != 3 || y.Dim(1) != 5 {
		t.Fatalf("Forward shape %v", y.Shape())
	}
}

func TestBuildWRN16Shapes(t *testing.T) {
	m, err := Build(wrnSpec())
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 4 {
		t.Fatalf("OutputShape = %v, want [4]", out)
	}
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 3, 8, 8)
	x.FillNormal(rng, 0, 1)
	y := m.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 4 {
		t.Fatalf("Forward shape %v", y.Shape())
	}
	if !y.IsFinite() {
		t.Fatal("WRN forward produced non-finite values")
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
	}{
		{name: "unknown arch", spec: Spec{Arch: "cnn", InputShape: []int{4}, NumClasses: 2, Hidden: 4}},
		{name: "one class", spec: Spec{Arch: ArchMLP, InputShape: []int{4}, NumClasses: 1, Hidden: 4}},
		{name: "mlp bad input", spec: Spec{Arch: ArchMLP, InputShape: []int{3, 2, 2}, NumClasses: 2, Hidden: 4}},
		{name: "mlp no hidden", spec: Spec{Arch: ArchMLP, InputShape: []int{4}, NumClasses: 2}},
		{name: "wrn bad depth", spec: Spec{Arch: ArchWRN, InputShape: []int{3, 8, 8}, NumClasses: 2, Depth: 15, WidthFactor: 1}},
		{name: "wrn no width", spec: Spec{Arch: ArchWRN, InputShape: []int{3, 8, 8}, NumClasses: 2, Depth: 16}},
		{name: "wrn vector input", spec: Spec{Arch: ArchWRN, InputShape: []int{8}, NumClasses: 2, Depth: 16, WidthFactor: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.spec); !errors.Is(err, ErrSpec) {
				t.Fatalf("expected ErrSpec, got %v", err)
			}
		})
	}
}

func TestWRN16ParamCountPlausible(t *testing.T) {
	// WRN-16-1 on 3×32×32 with 10 classes has ~0.22M parameters (the paper's
	// model). Our conv weights exclude biases (NoBias before BN), so accept a
	// range around the canonical count.
	m, err := Build(Spec{
		Arch:        ArchWRN,
		InputShape:  []int{3, 32, 32},
		NumClasses:  10,
		Depth:       16,
		WidthFactor: 1,
		InitSeed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := m.ParamCount()
	if n < 150_000 || n > 300_000 {
		t.Fatalf("WRN-16-1 param count %d outside plausible range", n)
	}
}

func TestFinetunePartFreezing(t *testing.T) {
	tests := []struct {
		part     FinetunePart
		trainGrp []string
	}{
		{part: FinetuneFull, trainGrp: []string{"low", "mid", "up", "classifier"}},
		{part: FinetuneLarge, trainGrp: []string{"mid", "up", "classifier"}},
		{part: FinetuneModerate, trainGrp: []string{"up", "classifier"}},
		{part: FinetuneClassifier, trainGrp: []string{"classifier"}},
	}
	for _, tt := range tests {
		t.Run(tt.part.String(), func(t *testing.T) {
			m, err := Build(mlpSpec())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetFinetunePart(tt.part); err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, g := range tt.trainGrp {
				want[g] = true
			}
			for _, name := range GroupNames() {
				g, err := m.Group(name)
				if err != nil {
					t.Fatal(err)
				}
				if g.Frozen() == want[name] {
					t.Fatalf("group %q frozen=%v, want trainable=%v", name, g.Frozen(), want[name])
				}
			}
		})
	}
}

func TestFrozenGroupsDoNotTrain(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	low, err := m.Group(GroupLow)
	if err != nil {
		t.Fatal(err)
	}
	before := low.Params()[0].W.Clone()

	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.1, Momentum: 0.5}, m.TrainableParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(8, 16)
	x.FillNormal(rng, 0, 1)
	labels := []int{0, 1, 2, 3, 4, 0, 1, 2}
	loss := nn.SoftmaxCrossEntropy{}
	for i := 0; i < 5; i++ {
		logits := m.Forward(x, true)
		_, dl, err := loss.Loss(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		m.Backward(dl)
		sgd.Step()
	}
	if !low.Params()[0].W.Equal(before) {
		t.Fatal("frozen low group weights changed during training")
	}
	// Training should still reduce loss through the upper part.
	logits := m.Forward(x, false)
	v, err := loss.Value(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if v >= math.Log(5) {
		t.Fatalf("loss %v did not improve from uniform %v", v, math.Log(5))
	}
}

func TestTrainableParamCountsShrink(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, part := range []FinetunePart{FinetuneFull, FinetuneLarge, FinetuneModerate, FinetuneClassifier} {
		if err := m.SetFinetunePart(part); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, m.TrainableParamCount())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Fatalf("trainable params not strictly decreasing: %v", counts)
		}
	}
	if counts[0] != m.ParamCount() {
		t.Fatalf("full part trains %d of %d params", counts[0], m.ParamCount())
	}
}

func TestCloneIndependence(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Same outputs initially.
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(2, 16)
	x.FillNormal(rng, 0, 1)
	y1 := m.Forward(x, false)
	y2 := c.Forward(x, false)
	if !y1.AllClose(y2, 1e-6) {
		t.Fatal("clone differs from original before training")
	}
	// Mutating the clone leaves the original untouched.
	c.Params()[0].W.AddScalar(1)
	y3 := m.Forward(x, false)
	if !y1.AllClose(y3, 1e-6) {
		t.Fatal("mutating clone changed original")
	}
}

func TestClonePreservesFinetunePart(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(FinetuneClassifier); err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if c.FinetunePart() != FinetuneClassifier {
		t.Fatalf("clone part = %v", c.FinetunePart())
	}
	if got := len(c.TrainableParams()); got != 2 {
		t.Fatalf("clone TrainableParams = %d, want 2", got)
	}
}

func TestCopyStateIncludesBatchNormBuffers(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Run training forwards to move running stats away from defaults.
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(16, 16)
	x.FillNormal(rng, 3, 2)
	m.Forward(x, true)

	c, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CopyStateFrom(m); err != nil {
		t.Fatal(err)
	}
	// Eval outputs must match exactly (requires running stats copied).
	y1 := m.Forward(x, false)
	y2 := c.Forward(x, false)
	if !y1.AllClose(y2, 1e-6) {
		t.Fatal("eval outputs differ: batch-norm buffers not copied")
	}
}

func TestGroupStateTensorsUpperOnly(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	upper, err := m.GroupStateTensors(m.TrainableGroupNames())
	if err != nil {
		t.Fatal(err)
	}
	all := m.StateTensors()
	if len(upper) == 0 || len(upper) >= len(all) {
		t.Fatalf("upper state %d tensors of %d total", len(upper), len(all))
	}
	var upperElems, allElems int
	for _, ts := range upper {
		upperElems += ts.Len()
	}
	for _, ts := range all {
		allElems += ts.Len()
	}
	if upperElems >= allElems {
		t.Fatal("upper state not smaller than full state")
	}
}

func TestGroupStateTensorsUnknownGroup(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.GroupStateTensors([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown group")
	}
}

func TestForwardCollectGroupsShapes(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 16)
	outs := m.ForwardCollectGroups(x, false)
	if len(outs) != 4 {
		t.Fatalf("collected %d groups", len(outs))
	}
	for name, o := range outs {
		if o.Rank() != 2 || o.Dim(0) != 4 {
			t.Fatalf("group %q activation shape %v", name, o.Shape())
		}
	}
	if outs[GroupClassifier].Dim(1) != 5 {
		t.Fatalf("classifier activation width %d", outs[GroupClassifier].Dim(1))
	}
}

func TestTrainFLOPsDecreaseWithFreezing(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = 1 << 62
	for _, part := range []FinetunePart{FinetuneFull, FinetuneLarge, FinetuneModerate, FinetuneClassifier} {
		if err := m.SetFinetunePart(part); err != nil {
			t.Fatal(err)
		}
		f := m.TrainFLOPsPerSample()
		if f >= prev {
			t.Fatalf("part %v: train FLOPs %d not below previous %d", part, f, prev)
		}
		if f <= m.ForwardFLOPsPerSample() {
			t.Fatalf("part %v: train FLOPs %d not above forward-only %d", part, f, m.ForwardFLOPsPerSample())
		}
		prev = f
	}
}

func TestWRNFinetuneModerateTrains(t *testing.T) {
	// Smoke test: the WRN trains end to end with frozen low/mid groups.
	m, err := Build(wrnSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.05, Momentum: 0.5}, m.TrainableParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(4, 3, 8, 8)
	x.FillNormal(rng, 0, 1)
	labels := []int{0, 1, 2, 3}
	loss := nn.SoftmaxCrossEntropy{}
	first := -1.0
	var last float64
	for i := 0; i < 8; i++ {
		logits := m.Forward(x, true)
		v, dl, err := loss.Loss(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = v
		}
		last = v
		m.Backward(dl)
		sgd.Step()
	}
	if last >= first {
		t.Fatalf("WRN loss did not decrease: %v -> %v", first, last)
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.StateTensors(), b.StateTensors()
	for i := range as {
		if !as[i].Equal(bs[i]) {
			t.Fatalf("state tensor %d differs between identical builds", i)
		}
	}
}

// TestCloneSkipsInitBitIdentical pins Clone's shortcut — a skeleton built
// without the weight initializers, then the state copy — to the path it
// replaced, Build(spec) followed by CopyStateFrom: every state tensor is
// equal, and with dropout on (its streams are seeded from the spec, not from
// the init rng) the first training step produces the same logits and leaves
// the same state behind.
func TestCloneSkipsInitBitIdentical(t *testing.T) {
	mlp, wrn := mlpSpec(), wrnSpec()
	mlp.DropoutRate, wrn.DropoutRate = 0.3, 0.3
	for _, tt := range []struct {
		spec  Spec
		batch []int
	}{
		{mlp, []int{8, 16}},
		{wrn, []int{4, 3, 8, 8}},
	} {
		src, err := Build(tt.spec)
		if err != nil {
			t.Fatal(err)
		}
		// Move the source off its initialization, so a clone that kept its
		// own draws (or zeros) cannot pass.
		rng := rand.New(rand.NewSource(6))
		for _, ts := range src.StateTensors() {
			noise := tensor.New(ts.Shape()...)
			noise.FillNormal(rng, 0, 0.1)
			if err := ts.Add(noise); err != nil {
				t.Fatal(err)
			}
		}
		clone, err := src.Clone()
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := Build(tt.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := legacy.CopyStateFrom(src); err != nil {
			t.Fatal(err)
		}

		x := tensor.New(tt.batch...)
		x.FillNormal(rng, 0, 1)
		labels := make([]int, tt.batch[0])
		for i := range labels {
			labels[i] = i % tt.spec.NumClasses
		}
		step := func(m *Model) *tensor.Tensor {
			sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.1, Momentum: 0.5}, m.TrainableParams())
			if err != nil {
				t.Fatal(err)
			}
			logits := m.Forward(x, true).Clone()
			_, dl, err := nn.SoftmaxCrossEntropy{}.Loss(logits, labels)
			if err != nil {
				t.Fatal(err)
			}
			m.Backward(dl)
			sgd.Step()
			return logits
		}
		equalStates := func(when string) {
			a, b := clone.StateTensors(), legacy.StateTensors()
			if len(a) != len(b) {
				t.Fatalf("%s %s: %d vs %d state tensors", tt.spec.Arch, when, len(a), len(b))
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("%s %s: state tensor %d differs", tt.spec.Arch, when, i)
				}
			}
		}
		equalStates("after cloning")
		if !step(clone).Equal(step(legacy)) {
			t.Fatalf("%s: first training step's logits differ", tt.spec.Arch)
		}
		equalStates("after one training step")
	}
}

// TestResetTransientRNGsRedrawsFreshMasks: a dropout model that has drawn
// masks and is then rewound draws exactly the masks of a freshly built one,
// and the rewind reseeds each layer's stream in place, allocating nothing.
func TestResetTransientRNGsRedrawsFreshMasks(t *testing.T) {
	spec := mlpSpec()
	spec.DropoutRate = 0.3
	used, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(8, 16)
	x.FillNormal(tensor.NewRand(5), 0, 1)
	for range 3 {
		used.Forward(x, true)
	}
	used.ResetTransientRNGs()
	fresh, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for pass := range 3 {
		if got, want := used.Forward(x, true).Clone(), fresh.Forward(x, true); !got.Equal(want) {
			t.Fatalf("pass %d after the rewind: logits differ from a fresh model's", pass)
		}
	}
	if allocs := testing.AllocsPerRun(20, used.ResetTransientRNGs); allocs != 0 {
		t.Errorf("ResetTransientRNGs allocates %v times, want 0", allocs)
	}
}
