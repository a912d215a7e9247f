package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bnPlaneShape is one plane-kernel geometry: n samples of c planes of s
// values each.
type bnPlaneShape struct{ n, c, s int }

// wrnBNShapes are the rank-4 BatchNorm inputs of WRN-16-1 on 8×8 inputs,
// each stage's channels at its plane size, at batch 32.
var wrnBNShapes = []bnPlaneShape{{32, 16, 64}, {32, 32, 16}, {32, 64, 4}}

// stageCanary64 is the float64 word written before and after every float64
// slice a plane kernel is given: a signalling NaN no draw produces.
const stageCanary64 = 0x7FF5A5A5A5A5A5A5

// guarded64 is guarded for float64 operands.
func guarded64(n int, draw func() float64) (buf, s []float64) {
	buf = make([]float64, n+2)
	buf[0], buf[n+1] = math.Float64frombits(stageCanary64), math.Float64frombits(stageCanary64)
	s = buf[1 : n+1]
	for i := range s {
		s[i] = draw()
	}
	return buf, s
}

// bnPlaneRun is one side's operands: x (or dy) and xhat as float32 planes,
// acc1 and acc2 the per-channel accumulators, mean the per-channel mean.
type bnPlaneRun struct {
	xBuf, hBuf         []float32
	x, h               []float32
	a1Buf, a2Buf, mBuf []float64
	acc1, acc2, mean   []float64
}

// checkBNPlanes holds the three plane kernels on the active tier to their
// portable references from channel 0 — at spatial 1 to the column kernels'
// references — bit for bit, on draws with NaN, ±Inf, ±0, subnormals and
// ±MaxFloat32 planted and accumulators that start from drawn values. A NaN
// result may differ only in its payload, in a channel where two NaN operands
// can meet in one operation (checkElemKernel's rule; a channel's operands
// are its planes' values, its starting accumulators and its mean). Every
// slice sits between canary words that must survive, and no input changes.
// At spatial 1 it also holds the plane references to the column references,
// from accumulators that are not -0, where a plane's chain from +0 is the
// column's add.
func checkBNPlanes(t *testing.T, sh bnPlaneShape, seed int64, plant uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	draw := func() float32 {
		if rng.Intn(256) < int(plant) {
			return elemSpecials[rng.Intn(len(elemSpecials))]
		}
		return float32(rng.NormFloat64() * 3)
	}
	draw64 := func() float64 { return float64(draw()) * (1 + 1e-9*float64(rng.Intn(3))) }
	nv := sh.n * sh.c * sh.s
	var got, want bnPlaneRun
	got.xBuf, got.x = guarded(nv, draw)
	got.hBuf, got.h = guarded(nv, draw)
	got.a1Buf, got.acc1 = guarded64(sh.c, draw64)
	got.a2Buf, got.acc2 = guarded64(sh.c, draw64)
	got.mBuf, got.mean = guarded64(sh.c, draw64)
	clone := func(r bnPlaneRun) bnPlaneRun {
		c32 := func(b []float32) ([]float32, []float32) {
			b = append([]float32(nil), b...)
			return b, b[1 : len(b)-1]
		}
		c64 := func(b []float64) ([]float64, []float64) {
			b = append([]float64(nil), b...)
			return b, b[1 : len(b)-1]
		}
		var o bnPlaneRun
		o.xBuf, o.x = c32(r.xBuf)
		o.hBuf, o.h = c32(r.hBuf)
		o.a1Buf, o.acc1 = c64(r.a1Buf)
		o.a2Buf, o.acc2 = c64(r.a2Buf)
		o.mBuf, o.mean = c64(r.mBuf)
		return o
	}
	// A channel's operand counts for the NaN-payload rule.
	nan, special := make([]int, sh.c), make([]int, sh.c)
	count := func(ch int, v float64) {
		if math.IsNaN(v) {
			nan[ch]++
		}
		if math.IsNaN(v) || math.Abs(v) > math.MaxFloat32/64 {
			special[ch]++
		}
	}
	for i := range got.x {
		ch := i / sh.s % sh.c
		count(ch, float64(got.x[i]))
		count(ch, float64(got.h[i]))
	}
	for ch := range sh.c {
		count(ch, got.acc1[ch])
		count(ch, got.acc2[ch])
		count(ch, got.mean[ch])
	}
	check := func(name string, got, want bnPlaneRun) {
		t.Helper()
		for _, b := range [][]float32{got.xBuf, got.hBuf} {
			if math.Float32bits(b[0]) != stageCanary || math.Float32bits(b[len(b)-1]) != stageCanary {
				t.Fatalf("%s %+v tier=%v: a float32 canary was overwritten", name, sh, activeTier)
			}
		}
		for _, b := range [][]float64{got.a1Buf, got.a2Buf, got.mBuf} {
			if math.Float64bits(b[0]) != stageCanary64 || math.Float64bits(b[len(b)-1]) != stageCanary64 {
				t.Fatalf("%s %+v tier=%v: a float64 canary was overwritten", name, sh, activeTier)
			}
		}
		for i := range want.x {
			if math.Float32bits(got.x[i]) != math.Float32bits(want.x[i]) ||
				math.Float32bits(got.h[i]) != math.Float32bits(want.h[i]) {
				t.Fatalf("%s %+v tier=%v: input element %d changed", name, sh, activeTier, i)
			}
		}
		for o, pair := range [][2][]float64{{got.acc1, want.acc1}, {got.acc2, want.acc2}, {got.mean, want.mean}} {
			for ch := range pair[1] {
				g, w := pair[0][ch], pair[1][ch]
				if math.Float64bits(g) == math.Float64bits(w) ||
					math.IsNaN(g) && math.IsNaN(w) && nan[ch] > 0 && special[ch] > 1 {
					continue
				}
				t.Fatalf("%s %+v tier=%v: output %d channel %d = %#x, portable %#x",
					name, sh, activeTier, o, ch, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
	base := got
	for _, k := range []struct {
		name      string
		call      func(r bnPlaneRun)
		ref, cols func(r bnPlaneRun)
	}{
		{"sum", func(r bnPlaneRun) { BNPlaneSum(r.acc1, r.x, sh.s) },
			func(r bnPlaneRun) { bnPlaneSumGo(r.acc1, r.x, sh.s, 0) },
			func(r bnPlaneRun) { bnColSumGo(r.acc1, r.x, 0) }},
		{"sq-dev", func(r bnPlaneRun) { BNPlaneSqDev(r.acc1, r.mean, r.x, sh.s) },
			func(r bnPlaneRun) { bnPlaneSqDevGo(r.acc1, r.mean, r.x, sh.s, 0) },
			func(r bnPlaneRun) { bnColSqDevGo(r.acc1, r.mean, r.x, 0) }},
		{"param-grads", func(r bnPlaneRun) { BNPlaneParamGrads(r.acc1, r.acc2, r.x, r.h, sh.s) },
			func(r bnPlaneRun) { bnPlaneParamGradsGo(r.acc1, r.acc2, r.x, r.h, sh.s, 0) },
			func(r bnPlaneRun) { bnParamGradsGo(r.acc1, r.acc2, r.x, r.h, 0) }},
	} {
		got, want = clone(base), clone(base)
		k.call(got)
		if sh.s > 1 {
			k.ref(want)
		} else {
			k.cols(want)
			plane, cols := clone(base), clone(base)
			for _, a := range [][]float64{plane.acc1, plane.acc2, cols.acc1, cols.acc2} {
				for ch, v := range a {
					if v == 0 {
						a[ch] = 0 // +0: see above
					}
				}
			}
			k.ref(plane)
			k.cols(cols)
			check(k.name+" plane reference at spatial 1", plane, cols)
		}
		check(k.name, got, want)
	}
}

// bnPlaneShapes are WRN-16-1's shapes and ragged ones: 0-5 samples, 1-13
// channels and planes of 1-9 values, 12 and 16, so the vector body meets
// every channel tail and refuses every plane it does not take.
func bnPlaneShapes() []bnPlaneShape {
	shapes := append([]bnPlaneShape(nil), wrnBNShapes...)
	for c := 1; c <= 13; c++ {
		for _, s := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
			shapes = append(shapes, bnPlaneShape{(c + s) % 6, c, s})
		}
	}
	return shapes
}

// TestBNPlaneKernelsMatchPortableEveryTier runs the plane kernels on every
// tier this machine offers under checkBNPlanes' terms, and checks that the
// vector bodies run on the tiers that have them, on whole 4-channel groups
// of planes of a multiple of 4 values.
func TestBNPlaneKernelsMatchPortableEveryTier(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		for i, sh := range bnPlaneShapes() {
			for _, plant := range []uint8{0, 64} {
				checkBNPlanes(t, sh, int64(i), plant)
			}
		}
		for _, sh := range []bnPlaneShape{{2, 16, 64}, {3, 7, 4}, {1, 13, 12}, {2, 8, 6}, {2, 3, 4}} {
			x, acc := make([]float32, sh.n*sh.c*sh.s), make([]float64, sh.c)
			want := 0
			if activeTier >= TierAVX2 && sh.s%4 == 0 {
				want = sh.c &^ 3
			}
			got := [3]int{bnPlaneSumVec(acc, x, sh.s), bnPlaneSqDevVec(acc, acc, x, sh.s),
				bnPlaneParamGradsVec(acc, make([]float64, sh.c), x, x, sh.s)}
			if got != [3]int{want, want, want} {
				t.Fatalf("tier %v %+v: plane bodies did %v channels, want %d", activeTier, sh, got, want)
			}
		}
	})
}

// FuzzBNPlaneKernelsMatchPortable holds the plane kernels on the active tier
// to the portable reference on 0-9 samples of 1-70 planes of 1-70 values,
// with NaN, ±Inf, ±0, subnormals and ±MaxFloat32 planted, under
// checkBNPlanes' terms.
func FuzzBNPlaneKernelsMatchPortable(f *testing.F) {
	f.Add(uint8(32), uint8(16), uint8(64), int64(1), uint8(0))
	f.Add(uint8(3), uint8(13), uint8(12), int64(2), uint8(40))
	f.Add(uint8(1), uint8(5), uint8(1), int64(3), uint8(255))
	f.Add(uint8(2), uint8(9), uint8(7), int64(4), uint8(128))
	f.Fuzz(func(t *testing.T, n, c, s uint8, seed int64, plant uint8) {
		checkBNPlanes(t, bnPlaneShape{int(n) % 10, 1 + int(c)%70, 1 + int(s)%70}, seed, plant)
	})
}

// BenchmarkBNPlanes times each plane kernel on the active tier at WRN-16-1's
// BatchNorm shapes (set FEDFTEDS_KERNEL=portable for the reference). Bytes
// count one read of each value.
func BenchmarkBNPlanes(b *testing.B) {
	for _, sh := range wrnBNShapes {
		x := make([]float32, sh.n*sh.c*sh.s)
		for i := range x {
			x[i] = float32(i%7) - 3
		}
		acc1, acc2 := make([]float64, sh.c), make([]float64, sh.c)
		name := fmt.Sprintf("%dx%dx%d", sh.n, sh.c, sh.s)
		for _, k := range []struct {
			name  string
			bytes int
			call  func()
		}{
			{"sum", 4 * len(x), func() { BNPlaneSum(acc1, x, sh.s) }},
			{"sq-dev", 4 * len(x), func() { BNPlaneSqDev(acc1, acc2, x, sh.s) }},
			{"param-grads", 8 * len(x), func() { BNPlaneParamGrads(acc1, acc2, x, x, sh.s) }},
		} {
			b.Run(k.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(k.bytes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.call()
				}
			})
		}
	}
}
