package nn

import (
	"fmt"
	"math/rand"
	"runtime"

	"fedfteds/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) inputs: im2col and the
// tensor package's row kernel, one sample at a time. Each direction is one
// tensor.ParallelFor over samples; a sample's planes are copied once into a
// zero-bordered staging plane so every window is interior, its OH*OW window
// rows are unpacked, multiplied while hot and transposed straight into the
// NCHW result. Samples are independent and each keeps the serial operation
// order, so results are identical at any worker count.
type Conv2D struct {
	base
	inC, outC       int
	kernel          int
	stride, padding int
	useBias         bool

	weight *Param // (outC, inC*kernel*kernel)
	bias   *Param // (outC), nil when useBias is false

	// cols (N*OH*OW, inC*K*K) is the unpacked batch, written only by a
	// training forward of an unfrozen layer, whose backward reads it for dW.
	// A forward that keeps nothing unpacks into the chunk's tile instead.
	cols      *tensor.Tensor
	colsValid bool  // cols holds the last training forward's unpacking
	inShape   []int // cached input shape (reused buffer)

	// Cached workspaces, reused across steps (see the package aliasing rule).
	wt, y, doutT, dx *tensor.Tensor

	// scratch is the per-chunk working set, owned by the layer so steady
	// state allocates nothing: chunk lo/chunk of a dispatch has the staging
	// plane (inC, H+2p, W+2p), a window tile (OH*OW, inC*K*K) and an output
	// tile (OH*OW, outC) at scratch[(lo/chunk)*perChunk:]. Chunks are at
	// least chunk samples long, so concurrent chunks never share an index.
	scratch         []float32
	chunk, perChunk int

	// Per-call arguments staged for the cached closures and cleared after
	// the dispatch, so the layer never keeps its caller's batch reachable.
	px, pdy          []float32
	ph, pw, poh, pow int
	needDx           bool

	fwdFn, bwdFn func(lo, hi int)
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
		weight:  &Param{Name: "weight", W: w},
	}
	if c.useBias {
		c.bias = &Param{Name: "bias", W: tensor.New(outC)}
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

// stage sizes the per-chunk scratch for a batch of n samples of h×w planes
// and records the dims the cached closures read.
func (c *Conv2D) stage(n, h, w, oh, ow int) {
	c.ph, c.pw, c.poh, c.pow = h, w, oh, ow
	slots := 4 * runtime.GOMAXPROCS(0) // ParallelFor's own default split
	c.chunk = max(1, (n+slots-1)/slots)
	c.perChunk = oh*ow*(c.inC*c.kernel*c.kernel+c.outC) + c.inC*(h+2*c.padding)*(w+2*c.padding)
	if need := (n + c.chunk - 1) / c.chunk * c.perChunk; len(c.scratch) < need {
		c.scratch = make([]float32, need)
	}
}

// chunkScratch returns the staging plane, window tile and output tile of the
// chunk starting at sample lo.
func (c *Conv2D) chunkScratch(lo int) (plane, tile, out []float32) {
	s := c.scratch[lo/c.chunk*c.perChunk:][:c.perChunk]
	nOut := c.poh * c.pow * c.outC
	nTile := c.poh * c.pow * c.inC * c.kernel * c.kernel
	return s[nTile+nOut:], s[:nTile], s[nTile : nTile+nOut]
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
	c.colsValid = train && !c.frozen
	if c.colsValid {
		c.cols = tensor.Ensure(c.cols, n*oh*ow, ck)
	}
	// Wᵀ (inC*K*K, outC), packed once per call: the row kernel streams it.
	c.wt = tensor.Ensure(c.wt, ck, c.outC)
	tensor.PackTranspose(c.wt.Data(), c.weight.W.Data(), c.outC, ck)
	c.y = tensor.Ensure(c.y, n, c.outC, oh, ow)
	c.stage(n, h, w, oh, ow)
	if c.fwdFn == nil {
		c.fwdFn = c.forwardRange
	}
	c.px = x.Data()
	tensor.ParallelFor(n, c.chunk, c.fwdFn)
	c.px = nil
	c.inShape = captureShape(c.inShape, x)
	return c.y
}

// forwardRange computes y for samples [lo, hi): per sample, out (OH*OW, outC)
// = windows @ Wᵀ (+ bias), transposed into y[i] (outC, OH, OW).
func (c *Conv2D) forwardRange(lo, hi int) {
	sp, ck := c.poh*c.pow, c.inC*c.kernel*c.kernel
	chw := c.inC * c.ph * c.pw
	plane, rows, out := c.chunkScratch(lo)
	clear(plane) // the border stays zero while the samples overwrite the interior
	yd, wt := c.y.Data(), c.wt.Data()
	for i := lo; i < hi; i++ {
		padPlanes(plane, c.px[i*chw:(i+1)*chw], c.inC, c.ph, c.pw, c.padding)
		if c.colsValid {
			rows = c.cols.Data()[i*sp*ck : (i+1)*sp*ck]
		}
		im2col(plane, rows, c.inC, c.ph+2*c.padding, c.pw+2*c.padding, c.kernel, c.stride, c.poh, c.pow)
		tensor.GemmRows(out, rows, wt, sp, c.outC, ck)
		if c.useBias {
			bias := c.bias.W.Data()
			for s := 0; s < sp; s++ {
				for oc, b := range bias {
					out[s*c.outC+oc] += b
				}
			}
		}
		tensor.PackTranspose(yd[i*c.outC*sp:(i+1)*c.outC*sp], out, sp, c.outC)
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if dy.Rank() != 4 || dy.Dim(1) != c.outC {
		panic(shapeErr("conv "+c.name+" backward", []int{-1, c.outC, -1, -1}, dy.Shape()))
	}
	if !c.frozen && !c.colsValid {
		panic("nn: conv " + c.name + ": Backward without train Forward")
	}
	n, oh, ow := dy.Dim(0), dy.Dim(2), dy.Dim(3)
	h, w := c.inShape[2], c.inShape[3]
	if !c.frozen {
		c.doutT = tensor.Ensure(c.doutT, c.outC, n*oh*ow)
	}
	if needDx {
		c.dx = tensor.Ensure(c.dx, n, c.inC, h, w)
	}
	c.stage(n, h, w, oh, ow)
	if c.bwdFn == nil {
		c.bwdFn = c.backwardRange
	}
	c.pdy, c.needDx = dy.Data(), needDx
	tensor.ParallelFor(n, c.chunk, c.bwdFn)
	c.pdy = nil

	if !c.frozen {
		// dW += dOutᵀ @ cols ; db += row sums of dOutᵀ, straight into G.
		// Each stays one batch-wide reduction, ascending (n, s), whatever
		// the partition.
		if err := tensor.MatMulAdd(c.weight.Grad(), c.doutT, c.cols); err != nil {
			panic(err)
		}
		if c.useBias {
			db, dt := c.bias.Grad().Data(), c.doutT.Data()
			for oc := range db {
				var sum float32
				for _, v := range dt[oc*n*oh*ow : (oc+1)*n*oh*ow] {
					sum += v
				}
				db[oc] += sum
			}
		}
	}
	if !needDx {
		return nil
	}
	return c.dx
}

// backwardRange handles samples [lo, hi) of dy (N, outC, OH, OW). A layer
// that trains files dy[i]'s planes into dOutᵀ (outC, N*OH*OW), which is the
// layout dW's reduction runs over, so nothing is transposed for it. When dx
// is wanted, dy[i] is transposed into the chunk's dOut tile (OH*OW, outC),
// the sample's dcols tile = dOut @ W is computed while both are hot, and
// scatter-added into dx[i] through the staging plane.
func (c *Conv2D) backwardRange(lo, hi int) {
	sp, ck, chw := c.poh*c.pow, c.inC*c.kernel*c.kernel, c.inC*c.ph*c.pw
	plane, tile, dout := c.chunkScratch(lo)
	wd := c.weight.W.Data()
	var dt []float32 // dOutᵀ, nil when the layer does not train
	if !c.frozen {
		dt = c.doutT.Data()
	}
	nsp := len(dt) / c.outC
	for i := lo; i < hi; i++ {
		dy := c.pdy[i*sp*c.outC : (i+1)*sp*c.outC]
		if dt != nil {
			for oc := 0; oc < c.outC; oc++ {
				copy(dt[oc*nsp+i*sp:oc*nsp+(i+1)*sp], dy[oc*sp:(oc+1)*sp])
			}
		}
		if !c.needDx {
			continue
		}
		tensor.PackTranspose(dout, dy, c.outC, sp)
		tensor.GemmRows(tile, dout, wd, sp, ck, c.outC)
		clear(plane)
		col2im(tile, plane, c.inC, c.ph+2*c.padding, c.pw+2*c.padding, c.kernel, c.stride, c.poh, c.pow)
		unpadPlanes(c.dx.Data()[i*chw:(i+1)*chw], plane, c.inC, c.ph, c.pw, c.padding)
	}
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

// padPlanes copies ch planes of h×w into the interiors of ch planes of
// (h+2p)×(w+2p), leaving the borders as they are.
func padPlanes(dst, src []float32, ch, h, w, p int) {
	wp := w + 2*p
	for c, off := 0, p*wp+p; c < ch; c, off = c+1, off+2*p*wp {
		for y := 0; y < h; y, off = y+1, off+wp {
			copy(dst[off:off+w], src[(c*h+y)*w:(c*h+y+1)*w])
		}
	}
}

// unpadPlanes is padPlanes backwards: the interiors of src into dst.
func unpadPlanes(dst, src []float32, ch, h, w, p int) {
	wp := w + 2*p
	for c, off := 0, p*wp+p; c < ch; c, off = c+1, off+2*p*wp {
		for y := 0; y < h; y, off = y+1, off+wp {
			copy(dst[(c*h+y)*w:(c*h+y+1)*w], src[off:off+w])
		}
	}
}

// im2col unpacks the oh×ow convolution windows of one sample's planes
// (ch, h, w) into rows of cols (oh*ow, ch*k*k). The planes already carry
// their padding, so every window is in bounds: padding is data (zeros that
// are multiplied like any value), never a branch.
func im2col(x, cols []float32, ch, h, w, k, stride, oh, ow int) {
	kk, hw := k*k, h*w
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[:ch*kk]
			cols = cols[ch*kk:]
			p := oy*stride*w + ox*stride
			switch k {
			case 3: // the dominant conv shape: nine direct moves
				for cc := 0; cc < ch; cc, p = cc+1, p+hw {
					s0 := x[p : p+3]
					s1 := x[p+w : p+w+3]
					s2 := x[p+2*w : p+2*w+3]
					d := row[cc*9 : cc*9+9]
					d[0], d[1], d[2] = s0[0], s0[1], s0[2]
					d[3], d[4], d[5] = s1[0], s1[1], s1[2]
					d[6], d[7], d[8] = s2[0], s2[1], s2[2]
				}
			case 1: // 1×1 shortcut convs: a channel gather
				for cc := range row {
					row[cc] = x[p+cc*hw]
				}
			default:
				for cc := 0; cc < ch; cc, p = cc+1, p+hw {
					d := row[cc*kk : (cc+1)*kk]
					for ky := 0; ky < k; ky++ {
						copy(d[ky*k:ky*k+k], x[p+ky*w:p+ky*w+k])
					}
				}
			}
		}
	}
}

// col2im scatter-adds one sample's gradient columns (oh*ow, ch*k*k) into its
// padded planes dx (ch, h, w), windows in ascending (oy, ox) order — the order
// each dx element receives its addends in. What lands in the border is
// dropped when the interior is copied out.
func col2im(cols, dx []float32, ch, h, w, k, stride, oh, ow int) {
	kk, hw := k*k, h*w
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[:ch*kk]
			cols = cols[ch*kk:]
			p := oy*stride*w + ox*stride
			if k == 3 { // im2col's nine moves, as nine adds
				for cc := 0; cc < ch; cc, p = cc+1, p+hw {
					d0 := dx[p : p+3]
					d1 := dx[p+w : p+w+3]
					d2 := dx[p+2*w : p+2*w+3]
					s := row[cc*9 : cc*9+9]
					d0[0], d0[1], d0[2] = d0[0]+s[0], d0[1]+s[1], d0[2]+s[2]
					d1[0], d1[1], d1[2] = d1[0]+s[3], d1[1]+s[4], d1[2]+s[5]
					d2[0], d2[1], d2[2] = d2[0]+s[6], d2[1]+s[7], d2[2]+s[8]
				}
				continue
			}
			for cc := 0; cc < ch; cc, p = cc+1, p+hw {
				for ky := 0; ky < k; ky++ {
					d := dx[p+ky*w : p+ky*w+k]
					for kx, v := range row[(cc*k+ky)*k : (cc*k+ky)*k+k] {
						d[kx] += v
					}
				}
			}
		}
	}
}
