package nn

import (
	"fmt"
	"math/rand"

	"fedfteds/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) inputs implemented with
// im2col and the tensor package's parallel matmul.
type Conv2D struct {
	base
	inC, outC       int
	kernel          int
	stride, padding int
	useBias         bool

	weight *Param // (outC, inC*kernel*kernel)
	bias   *Param // (outC), nil when useBias is false

	cols      *tensor.Tensor // im2col workspace (N*OH*OW, inC*K*K)
	colsValid bool           // cols holds the last training forward's unpacking
	inShape   []int          // cached input shape (reused buffer)

	// Cached workspaces, reused across steps (see the package aliasing rule).
	out, y, dout, dw, db, dcols, dx *tensor.Tensor

	// Batch-parallel loop plumbing: the unpack/reorder/scatter loops run
	// over samples through tensor.ParallelFor. Per-call arguments are staged
	// in fields and the closures cached once per layer, so steady-state
	// dispatch allocates nothing. Partitioning is by sample and every loop
	// writes disjoint per-sample regions (col2im's += only touches its own
	// sample's dx), so results are identical at any worker count.
	px, pdy          []float32
	ph, pw, poh, pow int

	im2colFn, fwdReorderFn, bwdReorderFn, col2imFn func(lo, hi int)
}

var _ Layer = (*Conv2D)(nil)

// ConvOpts configures optional Conv2D behaviour.
type ConvOpts struct {
	// Stride is the convolution stride (default 1).
	Stride int
	// Padding is the symmetric zero padding (default 0).
	Padding int
	// NoBias omits the additive bias (the usual choice before batch norm).
	NoBias bool
}

// NewConv2D constructs a kernel×kernel convolution with He-normal weights. A
// nil rng skips the initialization and leaves the weights zero (see NewDense).
func NewConv2D(name string, inC, outC, kernel int, opts ConvOpts, rng *rand.Rand) (*Conv2D, error) {
	if inC <= 0 || outC <= 0 || kernel <= 0 {
		return nil, fmt.Errorf("nn: conv %q: invalid dims inC=%d outC=%d k=%d", name, inC, outC, kernel)
	}
	stride := opts.Stride
	if stride == 0 {
		stride = 1
	}
	if stride < 0 || opts.Padding < 0 {
		return nil, fmt.Errorf("nn: conv %q: invalid stride=%d padding=%d", name, stride, opts.Padding)
	}
	fanIn := inC * kernel * kernel
	w := tensor.New(outC, fanIn)
	if rng != nil {
		w.FillKaiming(rng, fanIn)
	}
	c := &Conv2D{
		base:    base{name: name},
		inC:     inC,
		outC:    outC,
		kernel:  kernel,
		stride:  stride,
		padding: opts.Padding,
		useBias: !opts.NoBias,
		weight:  newParam("weight", w, false),
	}
	if c.useBias {
		c.bias = newParam("bias", tensor.New(outC), true)
	}
	return c, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.bias != nil {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

// outDims returns output spatial dims for input spatial dims.
func (c *Conv2D) outDims(h, w int) (oh, ow int) {
	oh = (h+2*c.padding-c.kernel)/c.stride + 1
	ow = (w+2*c.padding-c.kernel)/c.stride + 1
	return oh, ow
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(shapeErr("conv "+c.name, []int{-1, c.inC, -1, -1}, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.outDims(h, w)
	if oh <= 0 || ow <= 0 {
		panic(shapeErr("conv "+c.name, "positive output dims", x.Shape()))
	}
	ck := c.inC * c.kernel * c.kernel
	c.cols = tensor.Ensure(c.cols, n*oh*ow, ck)
	c.px, c.ph, c.pw, c.poh, c.pow = x.Data(), h, w, oh, ow
	if c.im2colFn == nil {
		c.im2colFn = func(lo, hi int) {
			im2colRange(c.px, c.cols.Data(), lo, hi, c.inC, c.ph, c.pw, c.kernel, c.stride, c.padding, c.poh, c.pow)
		}
	}
	tensor.ParallelFor(n, 1, c.im2colFn)

	// out (N*OH*OW, outC) = cols @ Wᵀ.
	c.out = tensor.Ensure(c.out, n*oh*ow, c.outC)
	if err := tensor.MatMulTransB(c.out, c.cols, c.weight.W); err != nil {
		panic(err)
	}
	if c.useBias {
		if err := c.out.AddRowVector(c.bias.W); err != nil {
			panic(err)
		}
	}

	// Reorder rows (n, oh, ow) × outC to (N, outC, OH, OW).
	c.y = tensor.Ensure(c.y, n, c.outC, oh, ow)
	if c.fwdReorderFn == nil {
		c.fwdReorderFn = func(lo, hi int) {
			od, yd := c.out.Data(), c.y.Data()
			sp := c.poh * c.pow
			for i := lo; i < hi; i++ {
				for s := 0; s < sp; s++ {
					row := od[(i*sp+s)*c.outC : (i*sp+s+1)*c.outC]
					for oc := 0; oc < c.outC; oc++ {
						yd[(i*c.outC+oc)*sp+s] = row[oc]
					}
				}
			}
		}
	}
	tensor.ParallelFor(n, 1, c.fwdReorderFn)

	c.colsValid = train && !c.frozen
	c.inShape = captureShape(c.inShape, x)
	return c.y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if dy.Rank() != 4 || dy.Dim(1) != c.outC {
		panic(shapeErr("conv "+c.name+" backward", []int{-1, c.outC, -1, -1}, dy.Shape()))
	}
	n, oh, ow := dy.Dim(0), dy.Dim(2), dy.Dim(3)
	sp := oh * ow
	ck := c.inC * c.kernel * c.kernel

	// dOut (N*OH*OW, outC): reorder from (N, outC, OH, OW).
	c.dout = tensor.Ensure(c.dout, n*sp, c.outC)
	c.pdy, c.poh, c.pow = dy.Data(), oh, ow
	if c.bwdReorderFn == nil {
		c.bwdReorderFn = func(lo, hi int) {
			dd, spp := c.dout.Data(), c.poh*c.pow
			for i := lo; i < hi; i++ {
				for oc := 0; oc < c.outC; oc++ {
					src := c.pdy[(i*c.outC+oc)*spp : (i*c.outC+oc+1)*spp]
					for s, v := range src {
						dd[(i*spp+s)*c.outC+oc] = v
					}
				}
			}
		}
	}
	tensor.ParallelFor(n, 1, c.bwdReorderFn)

	if !c.frozen {
		if !c.colsValid {
			panic("nn: conv " + c.name + ": Backward without train Forward")
		}
		// dW += dOutᵀ @ cols ; db += column sums of dOut.
		c.dw = tensor.Ensure(c.dw, c.outC, ck)
		if err := tensor.MatMulTransA(c.dw, c.dout, c.cols); err != nil {
			panic(err)
		}
		if err := c.weight.G.Add(c.dw); err != nil {
			panic(err)
		}
		if c.useBias {
			c.db = tensor.Ensure(c.db, c.outC)
			if err := c.dout.SumRows(c.db); err != nil {
				panic(err)
			}
			if err := c.bias.G.Add(c.db); err != nil {
				panic(err)
			}
		}
	}
	if !needDx {
		return nil
	}
	// dcols = dOut @ W, then scatter back with col2im.
	c.dcols = tensor.Ensure(c.dcols, n*sp, ck)
	if err := tensor.MatMul(c.dcols, c.dout, c.weight.W); err != nil {
		panic(err)
	}
	h, w := c.inShape[2], c.inShape[3]
	c.dx = tensor.Ensure(c.dx, n, c.inC, h, w)
	c.dx.Zero()
	c.ph, c.pw = h, w
	if c.col2imFn == nil {
		c.col2imFn = func(lo, hi int) {
			col2imRange(c.dcols.Data(), c.dx.Data(), lo, hi, c.inC, c.ph, c.pw, c.kernel, c.stride, c.padding, c.poh, c.pow)
		}
	}
	tensor.ParallelFor(n, 1, c.col2imFn)
	return c.dx
}

// OutputShape implements Layer.
func (c *Conv2D) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.inC {
		return nil, fmt.Errorf("nn: conv %q: per-sample input %v, want [%d H W]", c.name, in, c.inC)
	}
	oh, ow := c.outDims(in[1], in[2])
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv %q: input %v too small for kernel %d", c.name, in, c.kernel)
	}
	return []int{c.outC, oh, ow}, nil
}

// FLOPsPerSample implements Layer: 2 × MACs of the im2col matmul.
func (c *Conv2D) FLOPsPerSample(in []int) int64 {
	oh, ow := c.outDims(in[1], in[2])
	return 2 * int64(c.inC*c.kernel*c.kernel) * int64(c.outC) * int64(oh*ow)
}

// im2colRange unpacks convolution windows of samples [lo, hi) of x
// (N,C,H,W) into rows of cols ((N*OH*OW) × (C*K*K)), zero-padding
// out-of-range positions. Samples are independent, so the batch can be
// partitioned freely across workers. A window row whose k source pixels
// are all in bounds — every row of every interior pixel, the vast
// majority — is one contiguous copy; only edge pixels take the scalar
// bounds-checked path.
func im2colRange(x, cols []float32, lo, hi, ch, h, w, k, stride, pad, oh, ow int) {
	ck := ch * k * k
	kk := k * k
	for i := lo; i < hi; i++ {
		rowOff := i * oh * ow * ck
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			inY := iy0 >= 0 && iy0+k <= h
			for ox := 0; ox < ow; ox++ {
				row := cols[rowOff : rowOff+ck]
				rowOff += ck
				ix0 := ox*stride - pad
				if inY && ix0 >= 0 && ix0+k <= w {
					switch k {
					case 3: // the dominant conv shape: nine direct moves
						for cc := 0; cc < ch; cc++ {
							p := (i*ch+cc)*h*w + iy0*w + ix0
							s0 := x[p : p+3]
							s1 := x[p+w : p+w+3]
							s2 := x[p+2*w : p+2*w+3]
							d := row[cc*9 : cc*9+9]
							d[0], d[1], d[2] = s0[0], s0[1], s0[2]
							d[3], d[4], d[5] = s1[0], s1[1], s1[2]
							d[6], d[7], d[8] = s2[0], s2[1], s2[2]
						}
					case 1: // 1×1 shortcut convs: a channel gather
						for cc := 0; cc < ch; cc++ {
							row[cc] = x[(i*ch+cc)*h*w+iy0*w+ix0]
						}
					default:
						for cc := 0; cc < ch; cc++ {
							p := (i*ch+cc)*h*w + iy0*w + ix0
							d := row[cc*kk : (cc+1)*kk]
							for ky := 0; ky < k; ky++ {
								copy(d[ky*k:ky*k+k], x[p+ky*w:p+ky*w+k])
							}
						}
					}
					continue
				}
				// Edge pixel: scalar taps with zero padding.
				for cc := 0; cc < ch; cc++ {
					base := (i*ch + cc) * h * w
					dst := row[cc*kk : (cc+1)*kk]
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						d := dst[ky*k : ky*k+k]
						if iy < 0 || iy >= h {
							for j := range d {
								d[j] = 0
							}
							continue
						}
						src := x[base+iy*w : base+iy*w+w]
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							var v float32
							if ix >= 0 && ix < w {
								v = src[ix]
							}
							d[kx] = v
						}
					}
				}
			}
		}
	}
}

// col2imRange scatter-adds gradient columns of samples [lo, hi) back into
// dx (N,C,H,W). Each sample's windows only touch that sample's dx plane and
// the within-sample accumulation order is the serial one, so batch
// partitioning changes no result bit.
func col2imRange(cols, dx []float32, lo, hi, ch, h, w, k, stride, pad, oh, ow int) {
	ck := ch * k * k
	for i := lo; i < hi; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols[((i*oh+oy)*ow+ox)*ck:]
				for cc := 0; cc < ch; cc++ {
					base := (i*ch + cc) * h * w
					for ky := 0; ky < k; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							dx[base+iy*w+ix] += row[(cc*k+ky)*k+kx]
						}
					}
				}
			}
		}
	}
}
