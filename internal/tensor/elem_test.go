package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// elemIn holds one draw of every operand the lane kernels take: x, y and z
// are rows×c matrices (or flat vectors of rows·c elements), u and w
// per-channel float32 vectors, a..d per-channel float64 vectors, acc1/acc2
// the float64 accumulators' starting values, and s a float32 scalar. tx, ty
// and tu are x, y and u as tensors.
type elemIn struct {
	rows, c     int
	x, y, z     []float32
	u, w        []float32
	a, b, cc, d []float64
	acc1, acc2  []float64
	m           float64
	s           float32
	tx, ty, tu  *Tensor
}

// elemSpecials are the float32 values planted among the normal draws: NaN
// of both signs, quiet and signalling, with payloads; ±Inf; ±0; the extreme
// subnormals; ±MaxFloat32.
var elemSpecials = []float32{
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000),
	math.Float32frombits(0x7FC01234), math.Float32frombits(0xFFE00001),
	math.Float32frombits(0x7F800001), math.Float32frombits(0xFF800ABC),
	math.Float32frombits(0x7FBFFFFF), math.Float32frombits(0xFFA00000),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807FFFFF),
	math.Float32frombits(0x007FFFFF), math.Float32frombits(0x80000001),
	math.MaxFloat32, -math.MaxFloat32,
}

// newElemIn draws normal values and replaces each with a planted special
// with probability plant/256.
func newElemIn(rows, c int, seed int64, plant uint8) *elemIn {
	rng := rand.New(rand.NewSource(seed))
	f32 := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64() * 3)
			if rng.Intn(256) < int(plant) {
				s[i] = elemSpecials[rng.Intn(len(elemSpecials))]
			}
		}
		return s
	}
	f64 := func(n int) []float64 {
		s := make([]float64, n)
		for i, v := range f32(n) {
			// Widened specials, and normal values float32 cannot hold.
			s[i] = float64(v) * (1 + 1e-9*float64(i%3))
		}
		return s
	}
	in := &elemIn{
		rows: rows, c: c,
		x: f32(rows * c), y: f32(rows * c), u: f32(c), w: f32(c),
		a: f64(c), b: f64(c), cc: f64(c), d: f64(c),
		acc1: f64(c), acc2: f64(c),
		m: float64(rows) + rng.Float64(),
	}
	in.z, in.s = f32(rows*c), f32(1)[0]
	in.tx, in.ty, in.tu = tensorOf(in.x, rows, c), tensorOf(in.y, rows, c), tensorOf(in.u, c)
	return in
}

// elemOut holds the output operands, each starting as a copy of an input:
// m32 of x, m32b of y, m32c of z, v32 of u, acc1 and acc2 of theirs. tm32
// and tv32 are m32 and v32 as tensors.
type elemOut struct {
	m32, m32b, m32c, v32 []float32
	acc1, acc2           []float64
	tm32, tv32           *Tensor
}

func newElemOut(in *elemIn) *elemOut {
	c32 := func(s []float32) []float32 { return append([]float32(nil), s...) }
	c64 := func(s []float64) []float64 { return append([]float64(nil), s...) }
	o := &elemOut{m32: c32(in.x), m32b: c32(in.y), m32c: c32(in.z), v32: c32(in.u), acc1: c64(in.acc1), acc2: c64(in.acc2)}
	o.tm32, o.tv32 = tensorOf(o.m32, in.rows, in.c), tensorOf(o.v32, in.c)
	return o
}

// elemKernel is one lane kernel under test: call runs the dispatched kernel,
// or with ref the portable reference from lane 0, into o; reads lists the
// operands a lane's value depends on. A flat kernel's lanes are elements,
// the others' columns.
type elemKernel struct {
	name  string
	flat  bool
	call  func(in *elemIn, o *elemOut, ref bool)
	reads func(in *elemIn) [][]float64
}

// w64 widens float32 operands for checkElemKernel's scan of what a lane
// reads.
func w64(ss ...[]float32) [][]float64 {
	out := make([][]float64, len(ss))
	for i, s := range ss {
		out[i] = make([]float64, len(s))
		for j, v := range s {
			out[i][j] = float64(v)
		}
	}
	return out
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func tensorOf(data []float32, shape ...int) *Tensor { return &Tensor{shape: shape, data: data} }

// splat is n copies of the scalar v, as a lane reads it.
func splat(v float32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// elemKernels are every lane kernel: the layers', the fold's, the weight
// pack and the optimizer's.
var elemKernels = slices.Concat(layerKernels, foldKernels, []elemKernel{packKernel}, sgdKernels)

// packKernel is the weight pack. It moves data, so no lane may differ and
// nothing it reads excuses a NaN's payload.
var packKernel = elemKernel{"pack-transpose", false, func(in *elemIn, o *elemOut, ref bool) {
	if ref {
		packTransposeGo(o.m32, in.x, in.rows, in.c, 0)
	} else {
		PackTranspose(o.m32, in.x, in.rows, in.c)
	}
}, func(in *elemIn) [][]float64 { return nil }}

// foldKernels are the fold's element-wise kernels, at the drawn scalar.
var foldKernels = []elemKernel{
	{"scale", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			scaleFromGo(o.m32, o.m32, in.s, 0)
		} else {
			o.tm32.Scale(in.s)
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, splat(in.s, len(in.x))) }},
	{"scale-from", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			scaleFromGo(o.m32, in.y, in.s, 0)
		} else {
			must(o.tm32.ScaleFrom(in.s, in.ty))
		}
	}, func(in *elemIn) [][]float64 { return w64(in.y, splat(in.s, len(in.y))) }},
	{"axpy", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			axpyGo(o.m32, in.y, in.s, 0)
		} else {
			must(o.tm32.Axpy(in.s, in.ty))
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.y, splat(in.s, len(in.y))) }},
}

// sgdKernels run every optimizer mode with w in m32, g in m32b, v in m32c
// and the anchor in y.
var sgdKernels = []elemKernel{
	{"sgd-plain", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			sgdPlainGo(o.m32, o.m32b, 0.1, 0)
		} else {
			SGDPlain(o.m32, o.m32b, 0.1)
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.y) }},
	{"sgd-momentum", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			sgdMomentumGo(o.m32, o.m32b, o.m32c, 0.1, 0.9, 0)
		} else {
			SGDMomentum(o.m32, o.m32b, o.m32c, 0.1, 0.9)
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.y, in.z) }},
	sgdProxKernel("sgd-prox-momentum", 0.1, 0.9, 0.01),
	sgdProxKernel("sgd-prox-plain", 0.1, 0, 0.5),
}

func sgdProxKernel(name string, lr, mom, mu float32) elemKernel {
	return elemKernel{name, true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			sgdProxGo(o.m32, o.m32b, o.m32c, in.y, lr, mom, mu, 0)
		} else {
			SGDProx(o.m32, o.m32b, o.m32c, in.y, lr, mom, mu)
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.y, in.z) }}
}

// layerKernels are the element-wise layers' kernels.
var layerKernels = []elemKernel{
	{"relu", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			reluGo(o.m32, in.y, 0)
		} else {
			ReLU(o.m32, in.y)
		}
	}, func(in *elemIn) [][]float64 { return w64(in.y) }},
	{"relu-grad", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			reluGradGo(o.m32b, in.x, in.y, 0)
		} else {
			ReLUGrad(o.m32b, in.x, in.y)
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.y) }},
	{"add", true, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			addGo(o.m32, in.y, 0)
		} else {
			must(o.tm32.Add(in.ty))
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.y) }},
	{"add-row", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			addRowGo(o.m32, in.u, 0)
		} else {
			must(o.tm32.AddRowVector(in.tu))
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.u) }},
	{"sum-rows", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			sumRowsGo(o.v32, in.x, 0)
		} else {
			must(in.tx.SumRowsAdd(o.tv32))
		}
	}, func(in *elemIn) [][]float64 { return w64(in.x, in.u) }},
	{"bn-col-sum", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			bnColSumGo(o.acc1, in.x, 0)
		} else {
			BNPlaneSum(o.acc1, in.x, 1)
		}
	}, func(in *elemIn) [][]float64 { return append(w64(in.x), in.acc1) }},
	{"bn-col-sq-dev", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			bnColSqDevGo(o.acc1, in.a, in.x, 0)
		} else {
			BNPlaneSqDev(o.acc1, in.a, in.x, 1)
		}
	}, func(in *elemIn) [][]float64 { return append(w64(in.x), in.acc1, in.a) }},
	{"bn-normalize", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			bnNormalizeGo(o.m32, o.m32b, in.x, in.a, in.b, in.u, in.w, 0)
		} else {
			BNNormalize(o.m32, o.m32b, in.x, in.a, in.b, in.u, in.w)
		}
	}, func(in *elemIn) [][]float64 { return append(w64(in.x, in.u, in.w), in.a, in.b) }},
	{"bn-normalize-running", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			bnNormalizeRunningGo(o.m32b, in.x, in.a, in.b, in.cc, in.d, 0)
		} else {
			BNNormalizeRunning(o.m32b, in.x, in.a, in.b, in.cc, in.d)
		}
	}, func(in *elemIn) [][]float64 { return append(w64(in.x), in.a, in.b, in.cc, in.d) }},
	{"bn-param-grads", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			bnParamGradsGo(o.acc1, o.acc2, in.x, in.y, 0)
		} else {
			BNPlaneParamGrads(o.acc1, o.acc2, in.x, in.y, 1)
		}
	}, func(in *elemIn) [][]float64 { return append(w64(in.x, in.y), in.acc1, in.acc2) }},
	{"bn-input-grad", false, func(in *elemIn, o *elemOut, ref bool) {
		if ref {
			bnInputGradGo(o.m32b, in.x, in.y, in.a, in.b, in.cc, in.m, 0)
		} else {
			BNInputGrad(o.m32b, in.x, in.y, in.a, in.b, in.cc, in.m)
		}
	}, func(in *elemIn) [][]float64 { return append(w64(in.x, in.y), in.a, in.b, in.cc) }},
}

// checkElemKernel compares the dispatched kernel with the portable
// reference bit for bit, on every output operand. The one difference
// allowed is a NaN result's payload in a lane where two NaN operands can
// meet in one operation: x86 returns the first operand's NaN, and Go's
// compiler may swap the operands of a commutative scalar operation. Such a
// lane reads a NaN and at least one more value that is NaN or can make one
// (±Inf, or a value near MaxFloat32 that overflows a float32 sum).
func checkElemKernel(t *testing.T, k elemKernel, in *elemIn) {
	t.Helper()
	got, want := newElemOut(in), newElemOut(in)
	k.call(in, got, false)
	k.call(in, want, true)
	lane := func(i int) int {
		if k.flat {
			return i
		}
		return i % in.c
	}
	nan, special := make(map[int]int), make(map[int]int)
	for _, s := range k.reads(in) {
		for i, v := range s {
			if math.IsNaN(v) {
				nan[lane(i)]++
			}
			if math.IsNaN(v) || math.Abs(v) > math.MaxFloat32/64 {
				special[lane(i)]++
			}
		}
	}
	bits32 := func(s []float32) []uint64 {
		out := make([]uint64, len(s))
		for i, v := range s {
			out[i] = uint64(math.Float32bits(v))
		}
		return out
	}
	bits64 := func(s []float64) []uint64 {
		out := make([]uint64, len(s))
		for i, v := range s {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	gs := [][]uint64{bits32(got.m32), bits32(got.m32b), bits32(got.m32c), bits32(got.v32), bits64(got.acc1), bits64(got.acc2)}
	ws := [][]uint64{bits32(want.m32), bits32(want.m32b), bits32(want.m32c), bits32(want.v32), bits64(want.acc1), bits64(want.acc2)}
	isNaN := func(o int, b uint64) bool {
		if o < 4 {
			return math.IsNaN(float64(math.Float32frombits(uint32(b))))
		}
		return math.IsNaN(math.Float64frombits(b))
	}
	for o := range ws {
		for i, w := range ws[o] {
			g := gs[o][i]
			if g == w {
				continue
			}
			if l := lane(i); isNaN(o, g) && isNaN(o, w) && nan[l] > 0 && special[l] > 1 {
				continue
			}
			t.Fatalf("%s rows=%d c=%d tier=%v: output %d element %d = %#x, portable %#x",
				k.name, in.rows, in.c, activeTier, o, i, g, w)
		}
	}
}

// FuzzElementwiseMatchesPortable holds every lane kernel on the active tier
// to the portable reference on 0-40 rows and 1-70 columns — the vector body
// and every tail length — with NaN, ±Inf, ±0, subnormals and ±MaxFloat32
// planted.
func FuzzElementwiseMatchesPortable(f *testing.F) {
	f.Add(uint8(32), uint8(63), int64(1), uint8(0))
	f.Add(uint8(13), uint8(8), int64(2), uint8(40))
	f.Add(uint8(1), uint8(69), int64(3), uint8(255))
	f.Add(uint8(0), uint8(6), int64(4), uint8(128))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, plant uint8) {
		in := newElemIn(int(rows)%41, 1+int(cols)%70, seed, plant)
		for _, k := range elemKernels {
			checkElemKernel(t, k, in)
		}
	})
}

// checkIsFinite holds IsFinite to the reference on x, on x with its
// non-finite values replaced by 1, and on that finite copy with a NaN
// (quiet, signalling, negative) or an infinity planted at every position.
func checkIsFinite(t *testing.T, x []float32) {
	t.Helper()
	tx := tensorOf(x, len(x))
	if got, want := tx.IsFinite(), isFiniteGo(x, 0); got != want {
		t.Fatalf("n=%d tier=%v: IsFinite %v, portable %v", len(x), activeTier, got, want)
	}
	f := append([]float32(nil), x...)
	for i, v := range f {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			f[i] = 1
		}
	}
	tf := tensorOf(f, len(f))
	if !tf.IsFinite() || !isFiniteGo(f, 0) {
		t.Fatalf("n=%d tier=%v: finite data reads as non-finite", len(f), activeTier)
	}
	planted := []float32{
		math.Float32frombits(0x7FC00000), math.Float32frombits(0xFF800ABC),
		math.Float32frombits(0x7F800001), float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	for i := range f {
		keep := f[i]
		for _, v := range planted {
			f[i] = v
			if tf.IsFinite() || isFiniteGo(f, 0) {
				t.Fatalf("n=%d tier=%v: %#x at %d reads as finite", len(f), activeTier, math.Float32bits(v), i)
			}
		}
		f[i] = keep
	}
}

// TestElementwiseMatchesPortableEveryTier runs every lane kernel on every
// tier this machine offers, over every column count through 70 and row
// counts around the shapes a training step uses, holds IsFinite to the
// reference with a non-finite value at every position, and checks that the
// vector bodies run on the tiers that have them.
func TestElementwiseMatchesPortableEveryTier(t *testing.T) {
	orig := activeTier
	defer setTier(orig)
	for _, tier := range detectedFeatures.tiers() {
		setTier(tier)
		for _, rows := range []int{0, 1, 3, 13, 32} {
			for c := 1; c <= 70; c++ {
				for _, plant := range []uint8{0, 64} {
					in := newElemIn(rows, c, int64(rows*100+c), plant)
					for _, k := range elemKernels {
						checkElemKernel(t, k, in)
					}
				}
				in := newElemIn(rows, c, 1, 0)
				o := newElemOut(in)
				body, want := addVec(o.m32, in.y), 0
				if tier >= TierAVX2 {
					want = rows * c &^ 7
				}
				if body != want {
					t.Fatalf("tier %v: add body ran %d of %d lanes, want %d", tier, body, rows*c, want)
				}
				if body, want = bnColSumVec(o.acc1, in.x), 0; tier >= TierAVX2 {
					want = c &^ 7
				}
				if body != want {
					t.Fatalf("tier %v: column body ran %d of %d columns, want %d", tier, body, c, want)
				}
				if body, want = sgdMomentumVec(o.m32, o.m32b, o.m32c, 0.1, 0.5), 0; tier >= TierAVX2 {
					want = rows * c &^ 7
				}
				if body != want {
					t.Fatalf("tier %v: SGD body ran %d of %d lanes, want %d", tier, body, rows*c, want)
				}
				if body, want = isFiniteVec(in.x), 0; tier >= TierAVX2 {
					want = rows * c &^ 7
				}
				if body != want {
					t.Fatalf("tier %v: IsFinite body ran %d of %d lanes, want %d", tier, body, rows*c, want)
				}
				if body, want = packTransposeVec(o.m32, in.x, rows, c), 0; tier >= TierAVX2 && c >= 8 {
					want = rows &^ 7
				}
				if body != want {
					t.Fatalf("tier %v: pack body ran %d of %d rows (c=%d), want %d", tier, body, rows, c, want)
				}
				if rows <= 3 {
					checkIsFinite(t, newElemIn(rows, c, int64(c), 64).x)
				}
			}
		}
	}
}

// FuzzFoldMatchesPortable holds the fold's kernels — Scale, ScaleFrom and
// Axpy at a drawn scalar — to the portable reference on 0-299 elements,
// NaN, ±Inf, ±0, subnormals and ±MaxFloat32 planted, and IsFinite to it with
// a NaN or an infinity planted at every position.
func FuzzFoldMatchesPortable(f *testing.F) {
	f.Add(uint16(64), int64(1), uint8(0))
	f.Add(uint16(37), int64(2), uint8(40))
	f.Add(uint16(7), int64(3), uint8(255))
	f.Add(uint16(0), int64(4), uint8(128))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, plant uint8) {
		in := newElemIn(1, int(n)%300, seed, plant)
		for _, k := range foldKernels {
			checkElemKernel(t, k, in)
		}
		checkIsFinite(t, in.x)
	})
}

// FuzzPackTransposeMatchesPortable holds PackTranspose to the portable
// reference byte for byte, on 0-40 rows and columns of random bit patterns.
func FuzzPackTransposeMatchesPortable(f *testing.F) {
	f.Add(uint8(64), uint8(64), int64(1))
	f.Add(uint8(10), uint8(64), int64(2))
	f.Add(uint8(17), uint8(23), int64(3))
	f.Add(uint8(8), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64) {
		r, c := int(rows)%41, int(cols)%41
		rng := rand.New(rand.NewSource(seed))
		src := make([]float32, r*c)
		for i := range src {
			src[i] = math.Float32frombits(rng.Uint32())
		}
		got, want := make([]float32, r*c), make([]float32, r*c)
		for i := range got {
			got[i] = math.Float32frombits(0xDEADBEEF)
			want[i] = got[i]
		}
		PackTranspose(got, src, r, c)
		packTransposeGo(want, src, r, c, 0)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%dx%d tier=%v: element %d = %#x, portable %#x",
					r, c, activeTier, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// BenchmarkPackTranspose times the weight pack on the active tier at the
// shapes of the 64-wide MLP's hidden weight (64×64), its classifier weight
// (10×64), a 16-sample batch of its activations (16×64), and the 512-wide
// MLP's hidden weight (512×512). Bytes count one read and one write of each
// value.
func BenchmarkPackTranspose(b *testing.B) {
	for _, shape := range [][2]int{{64, 64}, {10, 64}, {16, 64}, {512, 512}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			src, dst := make([]float32, rows*cols), make([]float32, rows*cols)
			for i := range src {
				src[i] = float32(i)
			}
			b.SetBytes(int64(8 * rows * cols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PackTranspose(dst, src, rows, cols)
			}
		})
	}
}

// BenchmarkElementwise times each lane kernel on the active tier at the
// shapes of the experiment MLP's hidden (32×64) and classifier (32×10)
// layers. The SGD kernels are BenchmarkSGDStep's (internal/opt): stepped
// again and again on one draw, their velocities decay into subnormals.
func BenchmarkElementwise(b *testing.B) {
	for _, shape := range [][2]int{{32, 64}, {32, 10}} {
		in := newElemIn(shape[0], shape[1], 1, 0)
		for _, k := range slices.Concat(layerKernels, foldKernels, []elemKernel{packKernel}) {
			b.Run(fmt.Sprintf("%s/%dx%d", k.name, shape[0], shape[1]), func(b *testing.B) {
				o := newElemOut(in)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.call(in, o, false)
				}
			})
		}
	}
}
