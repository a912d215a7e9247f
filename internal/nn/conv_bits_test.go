package nn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// convRef is what a convolution layer computes, by the definition: y, the
// gradients a zeroed layer accumulates for its weight and bias, and dx.
type convRef struct{ y, gw, gb, dx []float32 }

// directConv is the scalar reference Conv2D must reproduce bit for bit. Every
// sum starts at zero and takes its terms one at a time in the order the
// layer's contract fixes — (c, ky, kx) for an output element, (n, oy, ox) for
// a weight or bias gradient, oc for a gradient column and (oy, ox) for the
// windows landing on an input element — each term an unfused multiply (the
// float32 conversion forbids an FMA) followed by an add. Padding is data:
// the zeros are multiplied like any value, so 0 * Inf is NaN here too.
func directConv(x, w, bias, dy []float32, n, inC, h, wd, outC, k, stride, pad int) convRef {
	hp, wp := h+2*pad, wd+2*pad
	oh, ow := (hp-k)/stride+1, (wp-k)/stride+1
	sp, ck := oh*ow, inC*k*k
	xp := make([]float32, n*inC*hp*wp)
	for i := 0; i < n*inC; i++ {
		for y := 0; y < h; y++ {
			copy(xp[(i*hp+y+pad)*wp+pad:][:wd], x[(i*h+y)*wd:][:wd])
		}
	}
	// at indexes element j = (c, ky, kx) of window s = (oy, ox) of sample i.
	at := func(i, s, j int) int {
		c, ky, kx := j/(k*k), j/k%k, j%k
		return ((i*inC+c)*hp+s/ow*stride+ky)*wp + s%ow*stride + kx
	}
	ref := convRef{
		y:  make([]float32, n*outC*sp),
		gw: make([]float32, outC*ck),
		dx: make([]float32, n*inC*h*wd),
	}
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			for s := 0; s < sp; s++ {
				var acc float32
				for j := 0; j < ck; j++ {
					acc += float32(xp[at(i, s, j)] * w[oc*ck+j])
				}
				if bias != nil {
					acc += bias[oc]
				}
				ref.y[(i*outC+oc)*sp+s] = acc
			}
		}
	}
	for oc := 0; oc < outC; oc++ {
		for j := 0; j < ck; j++ {
			var acc float32
			for i := 0; i < n; i++ {
				for s := 0; s < sp; s++ {
					acc += float32(dy[(i*outC+oc)*sp+s] * xp[at(i, s, j)])
				}
			}
			ref.gw[oc*ck+j] = 0 + acc // the layer adds its dW into a zeroed G
		}
	}
	if bias != nil {
		ref.gb = make([]float32, outC)
		for oc := range ref.gb {
			var acc float32
			for i := 0; i < n; i++ {
				for s := 0; s < sp; s++ {
					acc += dy[(i*outC+oc)*sp+s]
				}
			}
			ref.gb[oc] = 0 + acc
		}
	}
	dxp := make([]float32, len(xp))
	for i := 0; i < n; i++ {
		for s := 0; s < sp; s++ {
			for j := 0; j < ck; j++ {
				var acc float32
				for oc := 0; oc < outC; oc++ {
					acc += float32(dy[(i*outC+oc)*sp+s] * w[oc*ck+j])
				}
				dxp[at(i, s, j)] += acc
			}
		}
	}
	for i := 0; i < n*inC; i++ {
		for y := 0; y < h; y++ {
			copy(ref.dx[(i*h+y)*wd:][:wd], dxp[(i*hp+y+pad)*wp+pad:][:wd])
		}
	}
	return ref
}

// convTestData fills a slice with unit normals; with special set, about one
// element in twelve is instead a value that exposes a skipped or reordered
// operation: infinities, NaN, negative zero, denormals, the largest finite.
func convTestData(rng *rand.Rand, n int, special bool) []float32 {
	odd := []uint32{0x7F800000, 0xFF800000, 0x7FC00000, 0x80000000, 0x00000001,
		0x807FFFFF, 0x007FFFFF, 0x7F7FFFFF, 0x00000000}
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
		if special && rng.Intn(12) == 0 {
			out[i] = math.Float32frombits(odd[rng.Intn(len(odd))])
		}
	}
	return out
}

// diffBits returns the first index at which got and want differ in bits, or
// -1. Every NaN is one value: which payload a NaN * NaN keeps depends on the
// operand order an instruction was given, which is not arithmetic.
func diffBits(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i, g := range got {
		w := want[i]
		if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			return i
		}
	}
	return -1
}

// TestConvBitsMatchDirectConvolution compares the layer with directConv over
// every kernel, stride and padding it can be built with at small sizes —
// non-square planes, batch sizes of one chunk, of several with a ragged tail
// and of nothing, window counts that are not a multiple of the row kernel's block —
// with and without bias, on clean and on special-valued data, in training
// and evaluation mode, frozen, and with needDx false.
func TestConvBitsMatchDirectConvolution(t *testing.T) {
	const inC, outC, h, w = 3, 5, 7, 6
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for ni, n := range []int{1, 3, 17, 0} {
					for _, useBias := range []bool{false, true} {
						for _, special := range []bool{false, true} {
							name := fmt.Sprintf("k%d/s%d/p%d/n%d/bias=%v/special=%v", k, stride, pad, n, useBias, special)
							// Frozen and dx-less variants ride on a third of the grid each.
							frozen, needDx := (k+stride+pad+ni)%3 == 0, (k+stride+pad+ni)%3 != 1
							t.Run(name, func(t *testing.T) {
								checkConvAgainstDirect(t, n, inC, h, w, outC, k, stride, pad, useBias, special, frozen, needDx)
							})
						}
					}
				}
			}
		}
	}
}

func checkConvAgainstDirect(t *testing.T, n, inC, h, w, outC, k, stride, pad int, useBias, special, frozen, needDx bool) {
	rng := rand.New(rand.NewSource(int64(n*1000 + k*100 + stride*10 + pad)))
	c, err := NewConv2D("c", inC, outC, k, ConvOpts{Stride: stride, Padding: pad, NoBias: !useBias}, nil)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := c.outDims(h, w)
	xs := convTestData(rng, n*inC*h*w, special)
	ws := convTestData(rng, outC*inC*k*k, special)
	dys := convTestData(rng, n*outC*oh*ow, special)
	var bs []float32
	copy(c.weight.W.Data(), ws)
	if useBias {
		bs = convTestData(rng, outC, special)
		copy(c.bias.W.Data(), bs)
	}
	ref := directConv(xs, ws, bs, dys, n, inC, h, w, outC, k, stride, pad)
	x := tensor.MustFromSlice(xs, n, inC, h, w)
	dy := tensor.MustFromSlice(dys, n, outC, oh, ow)

	if i := diffBits(c.Forward(x, false).Data(), ref.y); i >= 0 {
		t.Fatalf("eval y[%d] = %x, want %x", i, math.Float32bits(c.y.Data()[i]), math.Float32bits(ref.y[i]))
	}
	c.SetFrozen(frozen)
	if i := diffBits(c.Forward(x, true).Data(), ref.y); i >= 0 {
		t.Fatalf("train y[%d] = %x, want %x", i, math.Float32bits(c.y.Data()[i]), math.Float32bits(ref.y[i]))
	}
	dx := c.Backward(dy, needDx)
	if !needDx {
		if dx != nil {
			t.Fatal("Backward returned a dx nobody asked for")
		}
	} else if i := diffBits(dx.Data(), ref.dx); i >= 0 {
		t.Fatalf("dx[%d] = %x, want %x", i, math.Float32bits(dx.Data()[i]), math.Float32bits(ref.dx[i]))
	}
	if frozen {
		ref.gw = make([]float32, len(ref.gw)) // a frozen layer accumulates nothing
		ref.gb = make([]float32, len(ref.gb))
	}
	if i := diffBits(c.weight.Grad().Data(), ref.gw); i >= 0 {
		t.Fatalf("dW[%d] = %x, want %x", i, math.Float32bits(c.weight.Grad().Data()[i]), math.Float32bits(ref.gw[i]))
	}
	if useBias {
		if i := diffBits(c.bias.Grad().Data(), ref.gb); i >= 0 {
			t.Fatalf("db[%d] = %x, want %x", i, math.Float32bits(c.bias.Grad().Data()[i]), math.Float32bits(ref.gb[i]))
		}
	}
}

// TestConvParentDigest pins the layer to the commit before its forward and
// backward were fused into per-sample passes: each digest below was recorded
// by running this file on a clone of that commit, where the batch was unpacked
// whole, edge windows took a bounds-checked tap loop and dcols was a
// batch-sized matrix. The rows are WRN-16-1's three stages (the 3x3 body
// convolution of each) and the two stage transitions (stride-2 3x3 and the
// 1x1 projection); a row hashes two training steps' y, dx and accumulated dW
// at the training batch size and an evaluation forward at a ragged one.
func TestConvParentDigest(t *testing.T) {
	for _, tt := range []struct {
		name                       string
		inC, outC, k, stride, size int
		want                       string
	}{
		{"stage1 16->16 8x8", 16, 16, 3, 1, 8, "60ce5ac1a266050a"},
		{"stage2 32->32 4x4", 32, 32, 3, 1, 4, "1bc616d9419176f0"},
		{"stage3 64->64 2x2", 64, 64, 3, 1, 2, "c39b81f2355b94a5"},
		{"stem 1->16 8x8", 1, 16, 3, 1, 8, "9c2540f70ebf0d0b"},
		{"down 16->32 8x8 stride 2", 16, 32, 3, 2, 8, "33304270b51c7342"},
		{"down 32->64 4x4 stride 2", 32, 64, 3, 2, 4, "9c1712eccd947c70"},
		{"proj 16->32 8x8 stride 2", 16, 32, 1, 2, 8, "453b89fcbcfc4a59"},
		{"proj 32->64 4x4 stride 2", 32, 64, 1, 2, 4, "7dcae5eaec493845"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			c, err := NewConv2D("c", tt.inC, tt.outC, tt.k, ConvOpts{Stride: tt.stride, Padding: tt.k / 2, NoBias: true}, rng)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			hash := func(ts *tensor.Tensor) {
				for _, v := range ts.Data() {
					fmt.Fprintf(h, "%08x", math.Float32bits(v))
				}
			}
			for step := 0; step < 2; step++ {
				x := tensor.New(16, tt.inC, tt.size, tt.size)
				x.FillNormal(rng, 0, 1)
				y := c.Forward(x, true)
				hash(y)
				dy := tensor.New(y.Shape()...)
				dy.FillNormal(rng, 0, 1)
				hash(c.Backward(dy, true))
				hash(c.weight.Grad())
			}
			x := tensor.New(37, tt.inC, tt.size, tt.size)
			x.FillNormal(rng, 0, 1)
			hash(c.Forward(x, false))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tt.want {
				t.Errorf("digest %s, want %s", got, tt.want)
			}
		})
	}
}
