package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// softmaxSpecials are the values checkSoftmaxKernels plants: NaN of both
// signs, quiet and signalling, ±Inf, ±0, subnormals, the largest finite
// magnitudes and values far enough below a row's maximum that Exp underflows
// or goes subnormal.
var softmaxSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7F800001),
	float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32, -700, -708.5, -720, -745.5, -800, -1e30,
}

// softmaxTemperatures are the ρ values checkSoftmaxKernels runs: 1 (where
// the body skips its division), the paper's 0.1, a softening 3 and one so
// small that a row's spread reaches Exp's arguments down to -1e300 and past.
var softmaxTemperatures = []float64{1, 0.1, 3, 1e-270}

// softmaxRun is one side's operands and results, each slice between canary
// words.
type softmaxRun struct {
	bufs32           [][]float32
	bufs64           [][]float64
	x, p, logp, d, q []float32
	h                []float64
}

// newSoftmaxRun allocates the slices of a rows×cols batch, inputs drawn.
func newSoftmaxRun(rows, cols int, draw func() float32) *softmaxRun {
	r := &softmaxRun{}
	g32 := func(n int, draw func() float32) []float32 {
		buf, s := guarded(n, draw)
		r.bufs32 = append(r.bufs32, buf)
		return s
	}
	zero := func() float32 { return 0 }
	r.x = g32(rows*cols, draw)
	r.q = g32(rows*cols, draw)
	r.p = g32(rows*cols, zero)
	r.logp = g32(rows*cols, zero)
	r.d = g32(rows*cols, zero)
	buf, h := guarded64(rows, func() float64 { return 0 })
	r.bufs64 = append(r.bufs64, buf)
	r.h = h
	return r
}

// softmaxCalls runs every softmax kernel on r: the softmax, the log-softmax
// and the gradient on x, the entropy of the softmax and, by EntropyRows, of
// q, a batch of raw draws that need not be probabilities.
func softmaxCalls(ws *SoftmaxScratch, r *softmaxRun, labels []int, cols int, rho float64) {
	SoftmaxRows(ws, r.p, r.x, cols, rho)
	LogSoftmaxRows(ws, r.logp, r.x, cols)
	CrossEntropyGrad(r.d, r.logp, labels, cols, 1/(float64(len(labels))*rho))
	SoftmaxEntropyRows(ws, r.h, r.x, cols, rho)
	h := make([]float64, len(r.h))
	EntropyRows(ws, h, r.q, cols)
	for i := range h {
		r.h[i] += h[i] * 0.5
	}
}

// checkSoftmaxKernels holds the softmax kernels on the active tier to the
// portable tier's, bit for bit, NaN payloads included, on a rows×cols batch
// with specials planted at a rate of plant/256. Every slice sits between
// canary words that must survive, and no input changes.
func checkSoftmaxKernels(t *testing.T, rows, cols int, rho float64, seed int64, plant uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scale := float64(1 + rng.Intn(40))
	draw := func() float32 {
		if rng.Intn(256) < int(plant) {
			return softmaxSpecials[rng.Intn(len(softmaxSpecials))]
		}
		return float32(rng.NormFloat64() * scale)
	}
	got := newSoftmaxRun(rows, cols, draw)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(cols)
		if rng.Intn(4) == 0 {
			// A row whose every value is its maximum.
			v := draw()
			for j := range cols {
				got.x[i*cols+j] = v
			}
		}
	}
	want := &softmaxRun{}
	for _, b := range got.bufs32 {
		want.bufs32 = append(want.bufs32, append([]float32(nil), b...))
	}
	for _, b := range got.bufs64 {
		want.bufs64 = append(want.bufs64, append([]float64(nil), b...))
	}
	inner := func(b []float32) []float32 { return b[1 : len(b)-1] }
	want.x, want.q, want.p, want.logp, want.d = inner(want.bufs32[0]), inner(want.bufs32[1]),
		inner(want.bufs32[2]), inner(want.bufs32[3]), inner(want.bufs32[4])
	want.h = want.bufs64[0][1 : rows+1]

	softmaxCalls(&SoftmaxScratch{}, got, labels, cols, rho)
	tier := activeTier
	setTier(TierPortable)
	softmaxCalls(&SoftmaxScratch{}, want, labels, cols, rho)
	setTier(tier)

	name := fmt.Sprintf("%dx%d rho=%g seed=%d tier=%v", rows, cols, rho, seed, activeTier)
	checkLaneKernels(t, name, got.x, got.q, cols, rho)
	for b := range got.bufs32 {
		gb, wb := got.bufs32[b], want.bufs32[b]
		if math.Float32bits(gb[0]) != stageCanary || math.Float32bits(gb[len(gb)-1]) != stageCanary {
			t.Fatalf("%s: a canary of float32 slice %d was overwritten", name, b)
		}
		for i := range gb {
			if math.Float32bits(gb[i]) != math.Float32bits(wb[i]) {
				t.Fatalf("%s: float32 slice %d lane %d = %#x (%g), portable %#x (%g)",
					name, b, i-1, math.Float32bits(gb[i]), gb[i], math.Float32bits(wb[i]), wb[i])
			}
		}
	}
	gb, wb := got.bufs64[0], want.bufs64[0]
	if math.Float64bits(gb[0]) != stageCanary64 || math.Float64bits(gb[len(gb)-1]) != stageCanary64 {
		t.Fatalf("%s: a canary of the entropies was overwritten", name)
	}
	for i := range gb {
		if math.Float64bits(gb[i]) != math.Float64bits(wb[i]) {
			t.Fatalf("%s: entropy %d = %#x (%g), portable %#x (%g)",
				name, i-1, math.Float64bits(gb[i]), gb[i], math.Float64bits(wb[i]), wb[i])
		}
	}
}

// checkLaneKernels holds the float64 lanes of the kernels' passes to their
// references on the active tier, bit for bit, before any float32 rounding
// can hide a lane's last bit: softmaxExp's exponentials of x and
// entropyTerms' terms of q. Every slice sits between canary words.
func checkLaneKernels(t *testing.T, name string, x, q []float32, cols int, rho float64) {
	t.Helper()
	top := make([]float32, len(x)/cols)
	rowMax(top, x, cols)
	eBuf, e := guarded64(len(x), func() float64 { return 0 })
	softmaxExp(e, x, top, cols, rho)
	want := make([]float64, len(x))
	softmaxExpGo(want, x, top, cols, rho, 0, len(x))
	same := func(pass string, buf, got, want []float64) {
		t.Helper()
		if math.Float64bits(buf[0]) != stageCanary64 || math.Float64bits(buf[len(buf)-1]) != stageCanary64 {
			t.Fatalf("%s: a canary of %s was overwritten", name, pass)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s lane %d = %#x, reference %#x", name, pass, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	same("exp", eBuf, e, want)
	tBuf, tt := guarded64(len(q), func() float64 { return 0 })
	entropyTerms(tt, q)
	want = make([]float64, len(q))
	entropyTermsGo(want, q, 0, len(q))
	same("entropy terms", tBuf, tt, want)
}

// TestSoftmaxKernelsMatchPortableEveryTier runs the softmax kernels on every
// tier this machine offers under checkSoftmaxKernels' terms, on ragged rows
// of 1-33 values in batches of 1-70, and checks that the vector bodies run
// on the tiers that have them.
func TestSoftmaxKernelsMatchPortableEveryTier(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		seed := int64(0)
		for cols := 1; cols <= 33; cols++ {
			for _, rows := range []int{1, 2, 7, 32 + cols%5, 70} {
				if rows == 70 && cols%4 != 2 {
					continue
				}
				for _, plant := range []uint8{0, 24} {
					seed++
					checkSoftmaxKernels(t, rows, cols, softmaxTemperatures[seed%4], seed, plant)
				}
			}
		}
		// The bodies take every group of ordinary values.
		const rows, cols = 5, 10
		x, e, max := make([]float32, rows*cols), make([]float64, rows*cols), make([]float32, rows)
		for i := range x {
			x[i] = float32(i%7) - 3
		}
		labels := make([]int, rows)
		wantExp, wantLog := 0, 0
		if expAVX2 {
			wantExp = len(x)
		}
		if elemAVX2 {
			wantLog = (len(x) - 1) &^ 3
		}
		got := [3]int{softmaxExpVec(e, x, max, cols, 0.1, 0), crossEntropyGradVec(make([]float32, len(x)), x, labels, cols, 0.5, 0),
			entropyTermsVec(e, x[:len(x)-1], 0)}
		if want := [3]int{wantExp, wantExp, wantLog}; got != want {
			t.Fatalf("tier %v: bodies did %v lanes, want %v", activeTier, got, want)
		}
		if activeTier >= TierAVX2 && !expAVX2 {
			t.Logf("tier %v: this CPU has no FMA, the exp bodies do not run", activeTier)
		}
	})
}

// BenchmarkSoftmaxKernels times each softmax kernel on the active tier at a
// client batch of 32 rows of 10 logits (set FEDFTEDS_KERNEL=portable for the
// reference), cycling through 64 batches of draws so that no branch learns
// one batch. Bytes count one read of each value.
func BenchmarkSoftmaxKernels(b *testing.B) {
	const rows, cols, batches = 32, 10, 64
	rng := rand.New(rand.NewSource(1))
	x, p, logp := make([]float32, batches*rows*cols), make([]float32, batches*rows*cols), make([]float32, batches*rows*cols)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 4)
	}
	labels := make([]int, batches*rows)
	for i := range labels {
		labels[i] = rng.Intn(cols)
	}
	d, h := make([]float32, rows*cols), make([]float64, rows)
	var ws SoftmaxScratch
	SoftmaxRows(&ws, p, x, cols, 0.1)
	LogSoftmaxRows(&ws, logp, x, cols)
	batch := func(s []float32, i int) []float32 { return s[i%batches*rows*cols : (i%batches+1)*rows*cols] }
	for _, k := range []struct {
		name string
		call func(i int)
	}{
		{"softmax", func(i int) { SoftmaxRows(&ws, batch(p, i), batch(x, i), cols, 0.1) }},
		{"log-softmax", func(i int) { LogSoftmaxRows(&ws, batch(logp, i), batch(x, i), cols) }},
		{"cross-entropy-grad", func(i int) {
			CrossEntropyGrad(d, batch(logp, i), labels[i%batches*rows:(i%batches+1)*rows], cols, 1.0/rows)
		}},
		{"entropy", func(i int) { EntropyRows(&ws, h, batch(p, i), cols) }},
		{"softmax-entropy", func(i int) { SoftmaxEntropyRows(&ws, h, batch(x, i), cols, 0.1) }},
	} {
		b.Run(fmt.Sprintf("%s/%dx%d", k.name, rows, cols), func(b *testing.B) {
			b.SetBytes(4 * rows * cols)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.call(i)
			}
		})
	}
}

// FuzzSoftmaxKernelsMatchPortable holds the softmax kernels on the active
// tier to the portable tier's on 1-70 rows of 1-33 values at a drawn
// temperature, specials planted, under checkSoftmaxKernels' terms.
func FuzzSoftmaxKernelsMatchPortable(f *testing.F) {
	f.Add(uint8(32), uint8(10), uint8(0), int64(1), uint8(0))
	f.Add(uint8(7), uint8(13), uint8(1), int64(2), uint8(40))
	f.Add(uint8(1), uint8(1), uint8(2), int64(3), uint8(255))
	f.Add(uint8(70), uint8(33), uint8(3), int64(4), uint8(128))
	f.Fuzz(func(t *testing.T, rows, cols, rho uint8, seed int64, plant uint8) {
		checkSoftmaxKernels(t, 1+int(rows)%70, 1+int(cols)%33, softmaxTemperatures[rho%4], seed, plant)
	})
}
