package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// stageShape is one sample's staging geometry: ch planes of h×w, padded by
// p on every side, whose 3×3 windows are taken at the given stride.
type stageShape struct{ ch, h, w, stride, p int }

// wrnStageShapes are the 3×3 convolutions of WRN-16-1 on 1×8×8 inputs — the
// stem, each stage's body convolution and the two stride-2 transitions — and
// the 1×1 projection's unpadded staging.
var wrnStageShapes = []stageShape{
	{1, 8, 8, 1, 1}, {16, 8, 8, 1, 1}, {16, 8, 8, 2, 1}, {32, 4, 4, 1, 1},
	{32, 4, 4, 2, 1}, {64, 2, 2, 1, 1}, {16, 8, 8, 2, 0},
}

// stageCanary is the word written before and after every slice a staging
// kernel is given: a signalling NaN no draw produces.
const stageCanary = 0x7FA5A5A5

// guarded returns n values drawn by draw in a buffer with a canary word
// before and after them; the returned slice's capacity reaches the trailing
// canary, as a sample's slice of a batch reaches the next sample.
func guarded(n int, draw func() float32) (buf, s []float32) {
	buf = make([]float32, n+2)
	buf[0], buf[n+1] = math.Float32frombits(stageCanary), math.Float32frombits(stageCanary)
	s = buf[1 : n+1]
	for i := range s {
		s[i] = draw()
	}
	return buf, s
}

// stageRun is one staging kernel's operands, drawn once per side so that the
// dispatched kernel and the reference start from the same bits.
type stageRun struct {
	dstBuf, srcBuf []float32
	dst, src       []float32
}

// checkStaging holds the four staging kernels on the active tier to their
// portable references from plane or window 0, bit for bit, on draws with
// NaN (both signs, quiet and signalling), ±Inf, ±0, subnormals and
// ±MaxFloat32 planted, every destination starting from drawn values as
// well: the copies must leave the borders and the scatter's sums start from
// what the plane holds. The scatter may differ only in a NaN's payload where
// two NaN operands can meet in one add (checkElemKernel's rule, an element's
// operands being its starting value and its addends). Every slice sits
// between canary words that must survive.
func checkStaging(t *testing.T, s stageShape, seed int64, plant uint8) {
	t.Helper()
	hp, wp := s.h+2*s.p, s.w+2*s.p
	nIn, nPad := s.ch*s.h*s.w, s.ch*hp*wp
	oh, ow := 0, 0
	if hp >= 3 && wp >= 3 {
		oh, ow = windows3x3(hp, wp, s.stride)
	}
	nCols := oh * ow * s.ch * 9
	rng := rand.New(rand.NewSource(seed))
	draw := func() float32 {
		if rng.Intn(256) < int(plant) {
			return elemSpecials[rng.Intn(len(elemSpecials))]
		}
		return float32(rng.NormFloat64() * 3)
	}
	// run draws a destination of nDst and a source of nSrc values, and
	// gives both sides the same bits.
	run := func(nDst, nSrc int) (got, want stageRun) {
		got.dstBuf, got.dst = guarded(nDst, draw)
		got.srcBuf, got.src = guarded(nSrc, draw)
		want.dstBuf, want.dst = guarded(nDst, func() float32 { return 0 })
		want.srcBuf, want.src = guarded(nSrc, func() float32 { return 0 })
		copy(want.dstBuf, got.dstBuf)
		copy(want.srcBuf, got.srcBuf)
		return got, want
	}
	check := func(name string, got, want stageRun, excused func(i int) bool) {
		t.Helper()
		for _, b := range [][]float32{got.dstBuf, got.srcBuf} {
			for _, i := range []int{0, len(b) - 1} {
				if math.Float32bits(b[i]) != stageCanary {
					t.Fatalf("%s %+v tier=%v: canary at %d of %d overwritten with %#x",
						name, s, activeTier, i, len(b), math.Float32bits(b[i]))
				}
			}
		}
		for i := range want.dst {
			g, w := math.Float32bits(got.dst[i]), math.Float32bits(want.dst[i])
			if g == w || excused != nil && g&0x7FFFFFFF > 0x7F800000 && w&0x7FFFFFFF > 0x7F800000 && excused(i) {
				continue
			}
			t.Fatalf("%s %+v tier=%v: element %d = %#x, portable %#x", name, s, activeTier, i, g, w)
		}
		for i := range want.src {
			if math.Float32bits(got.src[i]) != math.Float32bits(want.src[i]) {
				t.Fatalf("%s %+v tier=%v: source element %d changed", name, s, activeTier, i)
			}
		}
	}

	got, want := run(nPad, nIn)
	PadPlanes(got.dst, got.src, s.ch, s.h, s.w, s.p)
	padPlanesGo(want.dst, want.src, s.ch, s.h, s.w, s.p, 0)
	check("pad", got, want, nil)

	got, want = run(nIn, nPad)
	UnpadPlanes(got.dst, got.src, s.ch, s.h, s.w, s.p)
	unpadPlanesGo(want.dst, want.src, s.ch, s.h, s.w, s.p, 0)
	check("unpad", got, want, nil)

	if oh == 0 {
		return
	}
	got, want = run(nCols, nPad)
	Unpack3x3(got.dst, got.src, s.ch, hp, wp, s.stride)
	unpack3x3Go(want.dst, want.src, s.ch, hp, wp, s.stride, 0)
	check("unpack3x3", got, want, nil)

	got, want = run(nPad, nCols)
	// An element's operands: its starting value and every value of cols
	// that unpack3x3Go would read from it.
	nan, special := make([]int, nPad), make([]int, nPad)
	count := func(i int, v float32) {
		if math.IsNaN(float64(v)) {
			nan[i]++
		}
		if math.IsNaN(float64(v)) || math.Abs(float64(v)) > math.MaxFloat32/64 {
			special[i]++
		}
	}
	for i, v := range want.dst {
		count(i, v)
	}
	for win, c := 0, 0; win < oh*ow; win++ {
		for cc := 0; cc < s.ch; cc++ {
			base := cc*hp*wp + win/ow*s.stride*wp + win%ow*s.stride
			for k := 0; k < 9; k, c = k+1, c+1 {
				count(base+k/3*wp+k%3, want.src[c])
			}
		}
	}
	ScatterAdd3x3(got.dst, got.src, s.ch, hp, wp, s.stride)
	scatterAdd3x3Go(want.dst, want.src, s.ch, hp, wp, s.stride, 0)
	check("scatter-add3x3", got, want, func(i int) bool { return nan[i] > 0 && special[i] > 1 })
}

// TestConvStagingMatchesPortableEveryTier runs the staging kernels on every
// tier this machine offers, at WRN-16-1's shapes and at ragged ones — 1-5
// planes of 1×1 to 9×7, padding 0-2, strides 1-3, and rows of 9 to 33
// values, whose copy runs one to four 8-lane moves and a tail — and checks
// that the vector bodies run on the tiers that have them.
func TestConvStagingMatchesPortableEveryTier(t *testing.T) {
	shapes := append([]stageShape(nil), wrnStageShapes...)
	for ch := 1; ch <= 5; ch++ {
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 7; w++ {
				shapes = append(shapes, stageShape{ch, h, w, 1 + (h+w)%3, (ch + h*w) % 3})
			}
		}
	}
	for _, w := range []int{9, 15, 16, 17, 24, 31, 33} {
		for h := 1; h <= 3; h++ {
			shapes = append(shapes, stageShape{1 + w%3, h, w, h, w % 3})
		}
	}
	forEachTier(t, func(t *testing.T) {
		for i, s := range shapes {
			for _, plant := range []uint8{0, 64} {
				checkStaging(t, s, int64(i), plant)
			}
		}
		s := wrnStageShapes[1]
		plane, cols := make([]float32, s.ch*s.h*s.w), make([]float32, 36*s.ch)
		want := [2]int{}
		if activeTier >= TierAVX2 {
			want = [2]int{s.ch, 4}
		}
		if got := [2]int{copyPlanesVec(plane, plane, s.ch, s.h, s.w, s.w, s.h*s.w, s.w, s.h*s.w),
			unpack3x3Vec(cols, plane, s.ch, s.h, s.w, 3, 2, 2)}; got != want {
			t.Fatalf("tier %v: copy body did %d planes and unpack body %d windows, want %v", activeTier, got[0], got[1], want)
		}
	})
}

// TestConvStagingPanicsOnShortSlices checks that each kernel refuses a slice
// one element short of what its counts ask, before it writes anything.
func TestConvStagingPanicsOnShortSlices(t *testing.T) {
	const ch, h, w, p, stride = 2, 5, 4, 1, 2
	nIn, nPad := ch*h*w, ch*(h+2*p)*(w+2*p)
	oh, ow := windows3x3(h+2*p, w+2*p, stride)
	nCols := oh * ow * ch * 9
	for _, k := range []struct {
		name string
		n    [2]int // destination and source lengths
		call func(dst, src []float32)
	}{
		{"pad", [2]int{nPad, nIn}, func(dst, src []float32) { PadPlanes(dst, src, ch, h, w, p) }},
		{"unpad", [2]int{nIn, nPad}, func(dst, src []float32) { UnpadPlanes(dst, src, ch, h, w, p) }},
		{"unpack3x3", [2]int{nCols, nPad}, func(dst, src []float32) { Unpack3x3(dst, src, ch, h+2*p, w+2*p, stride) }},
		{"scatter", [2]int{nPad, nCols}, func(dst, src []float32) { ScatterAdd3x3(dst, src, ch, h+2*p, w+2*p, stride) }},
	} {
		for side := range 2 {
			short := k.n
			short[side]--
			dst, src := make([]float32, k.n[0]), make([]float32, k.n[1])
			for i := range src {
				src[i] = 1
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic with operand %d one element short", k.name, side)
					}
				}()
				k.call(dst[:short[0]], src[:short[1]])
			}()
			for i, v := range dst {
				if v != 0 {
					t.Fatalf("%s: element %d written before the panic", k.name, i)
				}
			}
		}
	}
}

// FuzzConvStagingMatchesPortable holds the staging kernels on the active
// tier to the portable reference on 1-8 planes of 1×1 to 12×40, padding 0-2
// and strides 1-3, with NaN, ±Inf, ±0, subnormals and ±MaxFloat32 planted,
// under checkStaging's terms.
func FuzzConvStagingMatchesPortable(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint8(8), uint8(1), uint8(1), int64(1), uint8(0))
	f.Add(uint8(3), uint8(7), uint8(9), uint8(2), uint8(1), int64(2), uint8(40))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), int64(3), uint8(255))
	f.Add(uint8(5), uint8(12), uint8(2), uint8(2), uint8(0), int64(4), uint8(128))
	f.Fuzz(func(t *testing.T, ch, h, w, stride, p uint8, seed int64, plant uint8) {
		checkStaging(t, stageShape{1 + int(ch)%8, 1 + int(h)%12, 1 + int(w)%40, 1 + int(stride)%3, int(p) % 3}, seed, plant)
	})
}

// BenchmarkConvStaging times each staging kernel on the active tier for one
// sample at WRN-16-1's shapes (set FEDFTEDS_KERNEL=portable for the
// reference). Bytes count one read and one write of each value moved.
func BenchmarkConvStaging(b *testing.B) {
	for _, s := range wrnStageShapes {
		hp, wp := s.h+2*s.p, s.w+2*s.p
		oh, ow := windows3x3(hp, wp, s.stride)
		x, plane := make([]float32, s.ch*s.h*s.w), make([]float32, s.ch*hp*wp)
		cols := make([]float32, oh*ow*s.ch*9)
		name := fmt.Sprintf("%dx%dx%d/s%d/p%d", s.ch, s.h, s.w, s.stride, s.p)
		for _, k := range []struct {
			name  string
			bytes int
			call  func()
		}{
			{"pad", len(x), func() { PadPlanes(plane, x, s.ch, s.h, s.w, s.p) }},
			{"unpack3x3", len(cols), func() { Unpack3x3(cols, plane, s.ch, hp, wp, s.stride) }},
			{"scatter-add3x3", len(cols), func() { ScatterAdd3x3(plane, cols, s.ch, hp, wp, s.stride) }},
			{"unpad", len(x), func() { UnpadPlanes(x, plane, s.ch, s.h, s.w, s.p) }},
		} {
			b.Run(k.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(8 * k.bytes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.call()
				}
			})
		}
	}
}
