package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// TestParamGradsMatchWorkspaceAdd pins the in-place gradient accumulation to
// what it replaced: each layer formed dW and db in a workspace, from +0, and
// added the workspace to G. One Backward onto a fresh G, and onto a G already
// holding values (-0 among them), must give exactly those bits. The inputs
// plant products that underflow to -0 (1e-30 × -1e-30) across whole sums:
// a sum begun at +0 turns them into +0, and so must the accumulation into G.
func TestParamGradsMatchWorkspaceAdd(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	// start gives every param of ps its starting gradient and returns copies
	// of them: zeros for a fresh G (left unallocated), random values with -0
	// in front for a preloaded one.
	start := func(rng *rand.Rand, ps []*Param, preload bool) [][]float32 {
		out := make([][]float32, len(ps))
		for i, p := range ps {
			out[i] = make([]float32, p.W.Len())
			if !preload {
				if p.G != nil {
					t.Fatalf("%s: fresh layer already holds a gradient", p.Name)
				}
				continue
			}
			g := p.Grad().Data()
			for j := range g {
				g[j] = float32(rng.NormFloat64())
			}
			g[0] = negZero
			copy(out[i], g)
		}
		return out
	}
	check := func(t *testing.T, what string, got *tensor.Tensor, want []float32) {
		t.Helper()
		if i := diffBits(got.Data(), want); i >= 0 {
			t.Fatalf("%s[%d] = %08x, workspace-then-Add gives %08x", what, i, math.Float32bits(got.Data()[i]), math.Float32bits(want[i]))
		}
	}
	// sumProducts is the workspace's element: Σ_r a[r]·b[r] from +0.
	sumProducts := func(n int, a, b func(r int) float32) float32 {
		var s float32
		for r := 0; r < n; r++ {
			s += a(r) * b(r)
		}
		return s
	}
	one := func(int) float32 { return 1 }
	randn := func(rng *rand.Rand, shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		x.FillNormal(rng, 0, 1)
		return x
	}

	for _, preload := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense/preloaded=%v", preload), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			const n, in, out = 5, 9, 6
			d, err := NewDense("d", in, out, rng)
			if err != nil {
				t.Fatal(err)
			}
			x, dy := randn(rng, n, in), randn(rng, n, out)
			for r := 0; r < n; r++ { // dW[0][0] is a sum of underflowed products
				x.Set(1e-30, r, 0)
				dy.Set(-1e-30, r, 0)
			}
			g0 := start(rng, d.Params(), preload)
			d.Forward(x, true)
			d.Backward(dy, true)
			xd, dyd := x.Data(), dy.Data()
			wantW, wantB := g0[0], g0[1]
			for i := 0; i < out; i++ {
				col := func(r int) float32 { return dyd[r*out+i] }
				for j := 0; j < in; j++ {
					wantW[i*in+j] += sumProducts(n, col, func(r int) float32 { return xd[r*in+j] })
				}
				wantB[i] += sumProducts(n, col, one)
			}
			check(t, "dW", d.weight.G, wantW)
			check(t, "db", d.bias.G, wantB)
		})
		for _, bias := range []bool{false, true} {
			t.Run(fmt.Sprintf("conv/bias=%v/preloaded=%v", bias, preload), func(t *testing.T) {
				rng := rand.New(rand.NewSource(72))
				const n, inC, outC, size = 2, 3, 4, 5
				c, err := NewConv2D("c", inC, outC, 3, ConvOpts{Padding: 1, NoBias: !bias}, rng)
				if err != nil {
					t.Fatal(err)
				}
				x := randn(rng, n, inC, size, size)
				for i := 0; i < n; i++ { // channel 0 in, channel 0 out: underflowed products only
					for s := 0; s < size*size; s++ {
						x.Data()[(i*inC)*size*size+s] = 1e-30
					}
				}
				y := c.Forward(x, true)
				dy := randn(rng, y.Shape()...)
				for i := 0; i < n; i++ {
					for s := 0; s < size*size; s++ {
						dy.Data()[(i*outC)*size*size+s] = -1e-30
					}
				}
				g0 := start(rng, c.Params(), preload)
				c.Backward(dy, true)
				// The workspace was dOutᵀ (outC, R) @ cols (R, ck) and the row
				// sums of dOutᵀ; both operands are still in the layer.
				dt, cols := c.doutT.Data(), c.cols.Data()
				rows, ck := c.cols.Dim(0), c.cols.Dim(1)
				wantW := g0[0]
				for oc := 0; oc < outC; oc++ {
					row := func(r int) float32 { return dt[oc*rows+r] }
					for q := 0; q < ck; q++ {
						wantW[oc*ck+q] += sumProducts(rows, row, func(r int) float32 { return cols[r*ck+q] })
					}
					if bias {
						g0[1][oc] += sumProducts(rows, row, one)
					}
				}
				check(t, "dW", c.weight.G, wantW)
				if bias {
					check(t, "db", c.bias.G, g0[1])
				}
			})
		}
		t.Run(fmt.Sprintf("batchnorm/preloaded=%v", preload), func(t *testing.T) {
			rng := rand.New(rand.NewSource(73))
			bn, err := NewBatchNorm("bn", 4)
			if err != nil {
				t.Fatal(err)
			}
			x := randn(rng, 3, 4, 2, 2)
			y := bn.Forward(x, true)
			dy := randn(rng, y.Shape()...)
			g0 := start(rng, bn.Params(), preload)
			bn.Backward(dy, true)
			// BatchNorm's workspace is its float64 scratch, added once.
			for ch := range g0[0] {
				g0[0][ch] += float32(bn.dgamma[ch])
				g0[1][ch] += float32(bn.dbeta[ch])
			}
			check(t, "dgamma", bn.gamma.G, g0[0])
			check(t, "dbeta", bn.beta.G, g0[1])
		})
	}
}
