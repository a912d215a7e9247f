package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// batchNormReference is BatchNorm as scalar (sample, channel, spatial) loops
// in float64, the loops a rank-4 input ran before its passes became lane
// kernels, kept as the oracle both ranks are held to: the statistics sum
// each plane from +0 and add the plane sums per channel in sample order, and
// dγ/dβ are one chain per channel in (sample, spatial) order.
type batchNormReference struct {
	c                           int
	eps, momentum               float64
	frozen                      bool
	gamma, beta, runMean        []float32
	runVar, gammaGrad, betaGrad []float32

	xhat         []float32 // nil when the last forward kept none
	invStd       []float64
	evalBackward bool
}

// referenceOf copies bn's parameters, buffers and gradients.
func referenceOf(bn *BatchNorm) *batchNormReference {
	cp := func(t *tensor.Tensor) []float32 { return append([]float32(nil), t.Data()...) }
	return &batchNormReference{
		c: bn.channels, eps: bn.eps, momentum: bn.momentum, frozen: bn.frozen,
		gamma: cp(bn.gamma.W), beta: cp(bn.beta.W), runMean: cp(bn.runMean), runVar: cp(bn.runVar),
		gammaGrad: cp(bn.gamma.Grad()), betaGrad: cp(bn.beta.Grad()),
		invStd: make([]float64, bn.channels),
	}
}

func (r *batchNormReference) forward(x []float32, n, spatial int, train bool) []float32 {
	cc := r.c
	y := make([]float32, len(x))
	mean, invStd := make([]float64, cc), r.invStd
	if train && !r.frozen && n*spatial > 1 {
		variance := make([]float64, cc)
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				var s float64
				for _, v := range x[off : off+spatial] {
					s += float64(v)
				}
				mean[ch] += s
			}
		}
		m := float64(n * spatial)
		for c := range mean {
			mean[c] /= m
		}
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				var s float64
				for _, v := range x[off : off+spatial] {
					d := float64(v) - mean[ch]
					s += float64(d * d)
				}
				variance[ch] += s
			}
		}
		for c := range variance {
			variance[c] /= m
			r.runMean[c] = float32((1-r.momentum)*float64(r.runMean[c]) + r.momentum*mean[c])
			r.runVar[c] = float32((1-r.momentum)*float64(r.runVar[c]) + r.momentum*variance[c])
			invStd[c] = 1.0 / math.Sqrt(variance[c]+r.eps)
		}
		r.xhat = make([]float32, len(x))
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				mu, is, g, b := mean[ch], invStd[ch], r.gamma[ch], r.beta[ch]
				for s := off; s < off+spatial; s++ {
					r.xhat[s] = float32((float64(x[s]) - mu) * is)
					y[s] = g*r.xhat[s] + b
				}
			}
		}
		r.evalBackward = false
		return y
	}
	for c := range invStd {
		invStd[c] = 1.0 / math.Sqrt(math.Max(float64(r.runVar[c]), 0)+r.eps)
		mean[c] = float64(r.runMean[c])
	}
	for i := 0; i < n; i++ {
		for ch := 0; ch < cc; ch++ {
			off := (i*cc + ch) * spatial
			mu, is, g, b := mean[ch], invStd[ch], float64(r.gamma[ch]), float64(r.beta[ch])
			for s := off; s < off+spatial; s++ {
				xh := (float64(x[s]) - mu) * is
				y[s] = float32(g*xh + b)
			}
		}
	}
	r.xhat = nil
	if train && !r.frozen {
		r.xhat = make([]float32, len(x))
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				mu, is := mean[ch], invStd[ch]
				for s := off; s < off+spatial; s++ {
					r.xhat[s] = float32((float64(x[s]) - mu) * is)
				}
			}
		}
	}
	r.evalBackward = true
	return y
}

func (r *batchNormReference) backward(dy []float32, n, spatial int) []float32 {
	cc := r.c
	m := float64(n * spatial)
	dx := make([]float32, len(dy))
	dgamma, dbeta := make([]float64, cc), make([]float64, cc)
	paramGrads := func() {
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				for s := off; s < off+spatial; s++ {
					dgamma[ch] += float64(float64(dy[s]) * float64(r.xhat[s]))
					dbeta[ch] += float64(dy[s])
				}
			}
		}
		if !r.frozen {
			for c := range dgamma {
				r.gammaGrad[c] += float32(dgamma[c])
				r.betaGrad[c] += float32(dbeta[c])
			}
		}
	}
	if r.xhat == nil || r.evalBackward {
		if !r.frozen && r.xhat != nil {
			paramGrads()
		}
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				g, is := float64(r.gamma[ch]), r.invStd[ch]
				for s := off; s < off+spatial; s++ {
					dx[s] = float32(float64(dy[s]) * g * is)
				}
			}
		}
		return dx
	}
	paramGrads()
	for i := 0; i < n; i++ {
		for ch := 0; ch < cc; ch++ {
			off := (i*cc + ch) * spatial
			g := float64(r.gamma[ch]) * r.invStd[ch] / m
			dg, db := dgamma[ch], dbeta[ch]
			for s := off; s < off+spatial; s++ {
				dx[s] = float32(g * (m*float64(dy[s]) - db - float64(r.xhat[s])*dg))
			}
		}
	}
	return dx
}

// bnSpecials are the values planted among the draws: NaN of both signs
// with payloads, ±Inf, ±0 and the extreme subnormals.
var bnSpecials = []float32{
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC01234),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807FFFFF),
}

// bnMode is one way a step runs the layer.
type bnMode struct {
	name          string
	train, frozen bool
}

var bnModes = []bnMode{{"train", true, false}, {"eval", false, false}, {"frozen", true, true}}

// checkBatchNormMatchesReference runs two forward-backward steps of one
// BatchNorm on an input of the given shape (rank 2, or rank 4 with h·w
// values a plane) and of its reference, from the same drawn parameters,
// running statistics and gradients, and compares every output — y, dx, the
// γ and β gradients and the running statistics — bit for bit. plant/256 of
// the inputs and 8/256 of the parameters are special values. A NaN may
// differ from the reference's NaN only in its payload: x86 keeps the first
// NaN operand's payload, and Go's compiler may swap the operands of a
// commutative operation in the reference.
func checkBatchNormMatchesReference(t *testing.T, shape []int, mode bnMode, seed int64, plant uint8) {
	t.Helper()
	n, c, spatial := shape[0], shape[1], 1
	if len(shape) == 4 {
		spatial = shape[2] * shape[3]
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func(s []float32, mean, std float64, plant uint8) {
		for i := range s {
			s[i] = float32(mean + std*rng.NormFloat64())
			if rng.Intn(256) < int(plant) {
				s[i] = bnSpecials[rng.Intn(len(bnSpecials))]
			}
		}
	}
	bn, err := NewBatchNorm("bn", c)
	if err != nil {
		t.Fatal(err)
	}
	draw(bn.gamma.W.Data(), 1, 0.5, 8)
	draw(bn.beta.W.Data(), 0, 0.5, 8)
	draw(bn.runMean.Data(), 1, 1, 8)
	draw(bn.runVar.Data(), 1, 0.5, 8)
	draw(bn.gamma.Grad().Data(), 0, 1, 0)
	draw(bn.beta.Grad().Data(), 0, 1, 0)
	bn.SetFrozen(mode.frozen)
	ref := referenceOf(bn)
	x, dy := tensor.New(shape...), tensor.New(shape...)
	same := func(what string, step int, got, want []float32) {
		t.Helper()
		for i := range want {
			g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
			if g != w && !(g&0x7FFFFFFF > 0x7F800000 && w&0x7FFFFFFF > 0x7F800000) {
				t.Fatalf("%v %s plant=%d step %d: %s element %d = %#x, reference %#x",
					shape, mode.name, plant, step, what, i, g, w)
			}
		}
	}
	for step := range 2 {
		draw(x.Data(), 1, 3, plant)
		draw(dy.Data(), 0, 1, plant)
		y := bn.Forward(x, mode.train)
		same("y", step, y.Data(), ref.forward(x.Data(), n, spatial, mode.train))
		dx := bn.Backward(dy, true)
		same("dx", step, dx.Data(), ref.backward(dy.Data(), n, spatial))
		same("γ gradient", step, bn.gamma.Grad().Data(), ref.gammaGrad)
		same("β gradient", step, bn.beta.Grad().Data(), ref.betaGrad)
		same("running mean", step, bn.runMean.Data(), ref.runMean)
		same("running variance", step, bn.runVar.Data(), ref.runVar)
	}
}

// TestBatchNormMatchesReference holds both ranks to the scalar loops of
// batchNormReference, in training, evaluation, frozen and degenerate-batch
// (one value per channel) mode: WRN-16-1's BatchNorm shapes (planes of 64,
// 16 and 4 values at 16, 32 and 64 channels), ragged ones (1-13 channels,
// planes of 1-9 values as h×w, 1-17 samples, rank 2 beside rank 4 at one
// value a plane), with NaN, ±Inf, ±0 and subnormals planted.
func TestBatchNormMatchesReference(t *testing.T) {
	shapes := [][]int{{16, 16, 8, 8}, {16, 32, 4, 4}, {16, 64, 2, 2}, {32, 16, 8, 8}}
	for c := 1; c <= 13; c++ {
		for s := 1; s <= 9; s++ {
			n := 1 + (c*7+s*3)%17
			h := 1
			if s%3 == 0 {
				h = 3
			}
			shapes = append(shapes, []int{n, c, h, s / h})
			if s == 1 {
				shapes = append(shapes, []int{n, c})
			}
		}
	}
	for _, c := range []int{1, 5, 8} {
		shapes = append(shapes, []int{1, c}, []int{1, c, 1, 1}) // degenerate batches
	}
	for i, shape := range shapes {
		for _, mode := range bnModes {
			for _, plant := range []uint8{0, 16} {
				checkBatchNormMatchesReference(t, shape, mode, int64(i), plant)
			}
		}
	}
}

// TestBatchNormRank4StepAllocatesNothing checks that a warm rank-4 training
// step (forward and backward) and a warm evaluation forward allocate
// nothing: the per-lane operands are sized once per geometry.
func TestBatchNormRank4StepAllocatesNothing(t *testing.T) {
	bn, err := NewBatchNorm("bn", 16)
	if err != nil {
		t.Fatal(err)
	}
	x, dy := tensor.New(16, 16, 8, 8), tensor.New(16, 16, 8, 8)
	x.FillNormal(rand.New(rand.NewSource(3)), 1, 2)
	dy.FillNormal(rand.New(rand.NewSource(4)), 0, 1)
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{"training step", func() { bn.Forward(x, true); bn.Backward(dy, true) }},
		{"evaluation forward", func() { bn.Forward(x, false) }},
	} {
		pass.run()
		if allocs := testing.AllocsPerRun(20, pass.run); allocs != 0 {
			t.Errorf("rank-4 BatchNorm %s allocates %v times in steady state, want 0", pass.name, allocs)
		}
	}
}

// TestBatchNormEvalKeepsWorkspace checks that evaluation forwards between
// training steps, as EDS scoring runs on a kept replica before its local
// epochs, allocate nothing at either rank, and that a Backward after an
// evaluation forward of a trainable layer still adds no γ/β gradient.
func TestBatchNormEvalKeepsWorkspace(t *testing.T) {
	for _, shape := range [][]int{{16, 12}, {8, 16, 4, 4}} {
		bn, err := NewBatchNorm("bn", shape[1])
		if err != nil {
			t.Fatal(err)
		}
		x, dy := tensor.New(shape...), tensor.New(shape...)
		x.FillNormal(rand.New(rand.NewSource(3)), 1, 2)
		dy.FillNormal(rand.New(rand.NewSource(4)), 0, 1)
		step := func() { bn.Forward(x, false); bn.Forward(x, true); bn.Backward(dy, true) }
		step()
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("%v: evaluation forward then training step allocates %v times in steady state, want 0", shape, allocs)
		}
		for _, p := range bn.Params() {
			clear(p.G.Data())
		}
		bn.Forward(x, false)
		bn.Backward(dy, true)
		for _, p := range bn.Params() {
			for _, g := range p.G.Data() {
				if g != 0 {
					t.Fatalf("%v: Backward after an evaluation forward added to %s's gradient", shape, p.Name)
				}
			}
		}
	}
}

// BenchmarkBatchNormStep times one training forward and backward of
// BatchNorm at WRN-16-1's rank-4 shapes, batch 16, and an evaluation
// forward at batch 160.
func BenchmarkBatchNormStep(b *testing.B) {
	for _, shape := range [][3]int{{16, 8, 8}, {32, 4, 4}, {64, 2, 2}} {
		c, h, w := shape[0], shape[1], shape[2]
		bn, err := NewBatchNorm("bn", c)
		if err != nil {
			b.Fatal(err)
		}
		x, dy, xe := tensor.New(16, c, h, w), tensor.New(16, c, h, w), tensor.New(160, c, h, w)
		x.FillNormal(rand.New(rand.NewSource(3)), 1, 2)
		dy.FillNormal(rand.New(rand.NewSource(4)), 0, 1)
		xe.FillNormal(rand.New(rand.NewSource(5)), 1, 2)
		b.Run(fmt.Sprintf("train/%dx%dx%d", c, h, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bn.Forward(x, true)
				bn.Backward(dy, true)
			}
		})
		b.Run(fmt.Sprintf("eval/%dx%dx%d", c, h, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bn.Forward(xe, false)
			}
		})
	}
}
