package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// codecIn is one draw of the int8 codec kernels' operands: a state x and its
// reference (NaN, ±Inf, ±0, subnormals and ±MaxFloat32 planted), random
// bits u for a block of subnormal deltas, and payload bytes q.
type codecIn struct {
	x, ref []float32
	u      []uint32
	q      []byte
}

// codecScales are the scales the dequantizing kernel is run at: ordinary,
// 0, subnormal, ±Inf (an Inf scale times a zero byte is NaN), and NaNs of
// both signs and kinds, as a hostile payload may carry.
var codecScales = []float32{
	0.0125, 0, math.Float32frombits(3), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7FC01234), math.Float32frombits(0xFF800ABC), 3e38 / 127,
}

func newCodecIn(n int, seed int64, plant uint8) *codecIn {
	in := newElemIn(1, n, seed, plant)
	rng := rand.New(rand.NewSource(seed))
	c := &codecIn{x: in.x, ref: in.y, u: make([]uint32, n), q: make([]byte, n)}
	for i := range c.u {
		c.u[i], c.q[i] = rng.Uint32(), byte(rng.Intn(256))
	}
	// In half the draws the state is the reference plus deltas about a
	// hundredth of it, so a block's scale is not set by the planted specials
	// alone.
	if rng.Intn(2) == 0 {
		for i := range c.x {
			c.x[i] = c.ref[i] + 0.01*float32(rng.NormFloat64())
		}
		for i := range c.x {
			if rng.Intn(256) < int(plant) {
				c.x[i] = elemSpecials[rng.Intn(len(elemSpecials))]
			}
		}
	}
	return c
}

// checkCodecKernels holds DeltaMaxAbs, QuantizeInt8Pair and DequantizeInt8
// on the active tier to their portable references from lane 0, bit for bit,
// NaN payloads included. QuantizeInt8Pair runs on DeltaMaxAbs's deltas at
// the codec's inverse scale beside a block of subnormal deltas at its own,
// then on those deltas at 0 (an infinite scale) beside them at a subnormal
// scale's inverse, which takes ordinary deltas past the int32 range. In
// DequantizeInt8 a lane where a NaN ref meets a NaN product is held to the
// reference's operand order: the vector body must keep the first operand's
// NaN, ref's, quieted, as x86 does; the reference's own lanes may keep
// either, since the compiler may swap the operands of its addition, and
// orders them differently with and without -race.
func checkCodecKernels(t *testing.T, in *codecIn) {
	t.Helper()
	n := len(in.x)
	got, want := make([]float32, n), make([]float32, n)
	gm := DeltaMaxAbs(got, in.x, in.ref)
	wm := deltaMaxAbsGo(want, in.x, in.ref, 0, 0)
	if math.Float32bits(gm) != math.Float32bits(wm) {
		t.Fatalf("n=%d tier=%v: DeltaMaxAbs max %#x, portable %#x", n, activeTier, math.Float32bits(gm), math.Float32bits(wm))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("n=%d tier=%v: DeltaMaxAbs delta %d = %#x, portable %#x", n, activeTier, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	sub, zero := make([]float32, n), make([]float32, n)
	for i, u := range in.u {
		sub[i] = math.Float32frombits(u%400 | u&(1<<31))
	}
	subScale := deltaMaxAbsGo(sub, sub, zero, 0, 0) / 127
	checkQuantizePair(t, want, wm/127, sub, subScale)
	checkQuantizePair(t, want, float32(math.Inf(1)), want, math.Float32frombits(5))
	for _, scale := range codecScales {
		DequantizeInt8(got, in.ref, in.q, scale)
		dequantizeInt8Go(want, in.ref, in.q, scale, 0)
		for i := range got {
			g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
			if r, p := in.ref[i], scale*float32(int8(in.q[i])); r != r && p != p {
				body := activeTier >= TierAVX2 && i < n&^7
				if g == math.Float32bits(r)|1<<22 || !body && g == math.Float32bits(p) {
					continue
				}
			}
			if g != w {
				t.Fatalf("n=%d tier=%v scale=%#x: DequantizeInt8 %d = %#x, portable %#x (ref %#x, q %d)",
					n, activeTier, math.Float32bits(scale), i, g, w, math.Float32bits(in.ref[i]), int8(in.q[i]))
			}
		}
	}
}

// checkQuantizePair holds QuantizeInt8Pair to its reference, and each chain
// to a Splitmix64 loop and quantizeInt8Go alone, on two blocks cut from the
// front of da and db (zero-padded to QuantBlock) at scales sa and sb: the
// bytes of every lane and both chains' states after.
func checkQuantizePair(t *testing.T, da []float32, sa float32, db []float32, sb float32) {
	t.Helper()
	var blocks [2][QuantBlock]float32
	copy(blocks[0][:], da)
	copy(blocks[1][:], db)
	invs := [2]float64{1 / float64(sa), 1 / float64(sb)}
	seed := uint64(len(da))<<32 | uint64(math.Float32bits(sa))
	var got, want [2][QuantBlock]byte
	gs, ws := [2]uint64{seed, ^seed}, [2]uint64{seed, ^seed}
	QuantizeInt8Pair(&got[0], &got[1], &blocks[0], &blocks[1], invs[0], invs[1], &gs[0], &gs[1])
	quantizeInt8PairGo(&want[0], &want[1], &blocks[0], &blocks[1], invs[0], invs[1], &ws[0], &ws[1])
	if got != want || gs != ws {
		t.Fatalf("n=%d tier=%v: QuantizeInt8Pair bytes or states differ from the portable reference", len(da), activeTier)
	}
	for i, s := range [2]uint64{seed, ^seed} {
		var u [QuantBlock]uint32
		var q [QuantBlock]byte
		for j := range u {
			s = Splitmix64(s)
			u[j] = uint32(s >> 32)
		}
		quantizeInt8Go(q[:], blocks[i][:], u[:], invs[i])
		if q != got[i] || s != gs[i] {
			t.Fatalf("n=%d tier=%v: QuantizeInt8Pair chain %d differs from one chain quantized alone", len(da), activeTier, i)
		}
	}
}

// TestCodecKernelsMatchPortableEveryTier runs the int8 codec's kernels on
// every tier this machine offers, on every length through 200 (a whole
// 64-element block, partial blocks and every tail), and checks that the
// vector bodies run on the tiers that have them.
func TestCodecKernelsMatchPortableEveryTier(t *testing.T) {
	orig := activeTier
	defer setTier(orig)
	for _, tier := range detectedFeatures.tiers() {
		setTier(tier)
		for n := 0; n <= 200; n++ {
			for _, plant := range []uint8{0, 16, 128} {
				checkCodecKernels(t, newCodecIn(n, int64(n*7+int(plant)), plant))
			}
			in := newCodecIn(n, 1, 0)
			want := 0
			if tier >= TierAVX2 {
				want = n &^ 7
			}
			d := make([]float32, n)
			if body, _ := deltaMaxAbsVec(d, in.x, in.ref); body != want {
				t.Fatalf("tier %v: DeltaMaxAbs body ran %d of %d lanes, want %d", tier, body, n, want)
			}
			if body := dequantizeInt8Vec(d, in.ref, in.q, 1); body != want {
				t.Fatalf("tier %v: DequantizeInt8 body ran %d of %d lanes, want %d", tier, body, n, want)
			}
			var q [QuantBlock]byte
			var pd [QuantBlock]float32
			var ps uint64
			if want = 0; tier >= TierAVX2 {
				want = QuantBlock
			}
			if body := quantizeInt8PairVec(&q, &q, &pd, &pd, 1, 1, &ps, &ps); body != want {
				t.Fatalf("tier %v: QuantizeInt8Pair body ran %d lanes, want %d", tier, body, want)
			}
		}
	}
}

// FuzzCodecKernelsMatchPortable holds the int8 codec's kernels on the
// active tier to the portable reference on 0-299 elements, under
// checkCodecKernels' rules.
func FuzzCodecKernelsMatchPortable(f *testing.F) {
	f.Add(uint16(64), int64(1), uint8(0))
	f.Add(uint16(37), int64(2), uint8(40))
	f.Add(uint16(7), int64(3), uint8(255))
	f.Add(uint16(200), int64(4), uint8(128))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, plant uint8) {
		checkCodecKernels(t, newCodecIn(int(n)%300, seed, plant))
	})
}
