package nn

import (
	"fmt"
	"math"

	"fedfteds/internal/tensor"
)

// BatchNorm normalizes activations per channel. It accepts rank-2 inputs
// (N, C), normalizing over the batch, and rank-4 inputs (N, C, H, W),
// normalizing over batch and spatial dimensions.
//
// In training mode (and not frozen) it normalizes with batch statistics and
// maintains exponential running statistics; in evaluation mode or when frozen
// it normalizes with the running statistics. Running statistics are exposed
// as Buffers so they travel with the model between server and clients.
type BatchNorm struct {
	base
	channels int
	eps      float64
	momentum float64

	gamma *Param
	beta  *Param

	runMean *tensor.Tensor
	runVar  *tensor.Tensor

	// Cached state from the last training-mode forward.
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int
	// evalBackward marks that the last training forward normalized with
	// running statistics (degenerate batch of one): Backward then uses the
	// decoupled gradient dx = dy·γ·invStd instead of the batch-stat formula.
	evalBackward bool

	// Cached workspaces, reused across steps (see the package aliasing rule).
	// mean holds the batch mean in training and the running mean in
	// evaluation, both in float64; gamma64 and beta64 are γ and β widened
	// for the running-statistics normalization.
	y, dx           *tensor.Tensor
	mean, variance  []float64
	gamma64, beta64 []float64
	dgamma, dbeta   []float64
	scale           []float64 // backward's per-channel γ·invStd/m
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm constructs a batch-norm layer over the given channel count
// with scale initialized to one, shift to zero, eps 1e-5 and running-stat
// momentum 0.1.
func NewBatchNorm(name string, channels int) (*BatchNorm, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("nn: batchnorm %q: invalid channels %d", name, channels)
	}
	g := tensor.New(channels)
	g.Fill(1)
	rv := tensor.New(channels)
	rv.Fill(1)
	return &BatchNorm{
		base:     base{name: name},
		channels: channels,
		eps:      1e-5,
		momentum: 0.1,
		gamma:    &Param{Name: "gamma", W: g},
		beta:     &Param{Name: "beta", W: tensor.New(channels)},
		runMean:  tensor.New(channels),
		runVar:   rv,
	}, nil
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// Buffers implements Layer, exposing the running mean and variance.
func (bn *BatchNorm) Buffers() []*tensor.Tensor {
	return []*tensor.Tensor{bn.runMean, bn.runVar}
}

// geometry returns (n, spatial): the input has n samples of channels×spatial
// values; spatial is 1 for rank-2 inputs.
func (bn *BatchNorm) geometry(x *tensor.Tensor) (n, spatial int) {
	switch x.Rank() {
	case 2:
		if x.Dim(1) != bn.channels {
			panic(shapeErr("batchnorm "+bn.name, bn.channels, x.Shape()))
		}
		return x.Dim(0), 1
	case 4:
		if x.Dim(1) != bn.channels {
			panic(shapeErr("batchnorm "+bn.name, bn.channels, x.Shape()))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		panic(shapeErr("batchnorm "+bn.name, "rank 2 or 4", x.Shape()))
	}
}

// ensureChannelBufs sizes the per-channel float64 scratch slices once.
func (bn *BatchNorm) ensureChannelBufs() {
	if bn.mean == nil {
		bn.mean = make([]float64, bn.channels)
		bn.variance = make([]float64, bn.channels)
		bn.invStd = make([]float64, bn.channels)
		bn.gamma64 = make([]float64, bn.channels)
		bn.beta64 = make([]float64, bn.channels)
		bn.dgamma = make([]float64, bn.channels)
		bn.dbeta = make([]float64, bn.channels)
		bn.scale = make([]float64, bn.channels)
	}
}

// Forward implements Layer. Only the per-element passes differ by rank:
// tensor lane kernels on (N, C), (sample, channel, spatial) loops on rank 4.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, spatial := bn.geometry(x)
	cc := bn.channels
	bn.ensureChannelBufs()
	bn.inShape = captureShape(bn.inShape, x)
	bn.y = tensor.Ensure(bn.y, bn.inShape...)
	xd, yd := x.Data(), bn.y.Data()
	gd, bd := bn.gamma.W.Data(), bn.beta.W.Data()
	rm, rv := bn.runMean.Data(), bn.runVar.Data()
	mean, invStd := bn.mean, bn.invStd

	if train && !bn.frozen && n*spatial > 1 {
		variance := bn.variance
		clear(mean)
		clear(variance)
		// Two-pass statistics, accumulated per (sample, channel) run in
		// float64, matching the original closure-based implementation term
		// for term.
		if spatial == 1 {
			tensor.BNColSum(mean, xd)
		} else {
			for i := 0; i < n; i++ {
				for ch := 0; ch < cc; ch++ {
					off := (i*cc + ch) * spatial
					var s float64
					for _, v := range xd[off : off+spatial] {
						s += float64(v)
					}
					mean[ch] += s
				}
			}
		}
		m := float64(n * spatial)
		for c := range mean {
			mean[c] /= m
		}
		if spatial == 1 {
			tensor.BNColSqDev(variance, mean, xd)
		} else {
			for i := 0; i < n; i++ {
				for ch := 0; ch < cc; ch++ {
					off := (i*cc + ch) * spatial
					var s float64
					for _, v := range xd[off : off+spatial] {
						d := float64(v) - mean[ch]
						s += d * d
					}
					variance[ch] += s
				}
			}
		}
		for c := range variance {
			variance[c] /= m
			rm[c] = float32((1-bn.momentum)*float64(rm[c]) + bn.momentum*mean[c])
			rv[c] = float32((1-bn.momentum)*float64(rv[c]) + bn.momentum*variance[c])
			invStd[c] = 1.0 / math.Sqrt(variance[c]+bn.eps)
		}
		bn.xhat = tensor.Ensure(bn.xhat, bn.inShape...)
		xh := bn.xhat.Data()
		if spatial == 1 {
			tensor.BNNormalize(xh, yd, xd, mean, invStd, gd, bd)
		} else {
			for i := 0; i < n; i++ {
				for ch := 0; ch < cc; ch++ {
					off := (i*cc + ch) * spatial
					mu, is, g, b := mean[ch], invStd[ch], gd[ch], bd[ch]
					for s := off; s < off+spatial; s++ {
						xh[s] = float32((float64(xd[s]) - mu) * is)
						yd[s] = g*xh[s] + b
					}
				}
			}
		}
		bn.evalBackward = false
		return bn.y
	}

	// Evaluation / frozen path: use running statistics. A training-mode call
	// lands here only for a degenerate batch (one value per channel), where
	// batch statistics are undefined; it keeps a cache so Backward works.
	g64, b64 := bn.gamma64, bn.beta64
	for c := range invStd {
		// Aggregation noise (lossy uplink codecs, federated averaging of
		// freshly restored buffers) can push a running variance slightly
		// negative; clamping keeps invStd finite instead of poisoning every
		// downstream activation with NaN. Locally computed variances are
		// non-negative, so this never changes a lossless run.
		invStd[c] = 1.0 / math.Sqrt(math.Max(float64(rv[c]), 0)+bn.eps)
		mean[c], g64[c], b64[c] = float64(rm[c]), float64(gd[c]), float64(bd[c])
	}
	if spatial == 1 {
		tensor.BNNormalizeRunning(yd, xd, mean, invStd, g64, b64)
	} else {
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				mu, is, g, b := mean[ch], invStd[ch], g64[ch], b64[ch]
				for s := off; s < off+spatial; s++ {
					xh := (float64(xd[s]) - mu) * is
					yd[s] = float32(g*xh + b)
				}
			}
		}
	}
	if train && !bn.frozen {
		bn.xhat = tensor.Ensure(bn.xhat, bn.inShape...)
		xh := bn.xhat.Data()
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				mu, is := mean[ch], invStd[ch]
				for s := off; s < off+spatial; s++ {
					xh[s] = float32((float64(xd[s]) - mu) * is)
				}
			}
		}
	} else {
		bn.xhat = nil
	}
	bn.evalBackward = true
	return bn.y
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	n, spatial := bn.geometry(dy)
	cc := bn.channels
	m := float64(n * spatial)
	dyd := dy.Data()
	gd := bn.gamma.W.Data()

	if bn.xhat == nil || bn.evalBackward {
		if bn.invStd == nil {
			panic("nn: batchnorm " + bn.name + ": Backward without Forward")
		}
		// Running-statistics normalization: the statistics do not depend on
		// the batch, so dx decouples to dy·γ·invStd; dγ/dβ accumulate from
		// the cached xhat when the layer is trainable.
		if !bn.frozen && bn.xhat != nil {
			bn.paramGrads(dyd, bn.xhat.Data(), n, spatial)
		}
		if !needDx {
			return nil
		}
		bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
		dxd := bn.dx.Data()
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				g, is := float64(gd[ch]), bn.invStd[ch]
				for s := off; s < off+spatial; s++ {
					// Left-to-right as in the original formula dy·γ·invStd.
					dxd[s] = float32(float64(dyd[s]) * g * is)
				}
			}
		}
		return bn.dx
	}

	xh := bn.xhat.Data()
	bn.paramGrads(dyd, xh, n, spatial)
	if !needDx {
		return nil
	}
	// dx = gamma*invStd/m * (m*dy - dbeta - xhat*dgamma), the per-channel
	// factor once per channel instead of once per element.
	dgamma, dbeta, scale := bn.dgamma, bn.dbeta, bn.scale
	for ch := range scale {
		scale[ch] = float64(gd[ch]) * bn.invStd[ch] / m
	}
	bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
	dxd := bn.dx.Data()
	if spatial == 1 {
		tensor.BNInputGrad(dxd, dyd, xh, scale, dbeta, dgamma, m)
		return bn.dx
	}
	for i := 0; i < n; i++ {
		for ch := 0; ch < cc; ch++ {
			off := (i*cc + ch) * spatial
			g, dg, db := scale[ch], dgamma[ch], dbeta[ch]
			for s := off; s < off+spatial; s++ {
				dxd[s] = float32(g * (m*float64(dyd[s]) - db - float64(xh[s])*dg))
			}
		}
	}
	return bn.dx
}

// paramGrads sums dγ_c = Σ dy·xhat and dβ_c = Σ dy over batch and space into
// the float64 scratch and, unless the layer is frozen, adds them to the
// parameter gradients.
func (bn *BatchNorm) paramGrads(dyd, xh []float32, n, spatial int) {
	cc := bn.channels
	dgamma, dbeta := bn.dgamma, bn.dbeta
	clear(dgamma)
	clear(dbeta)
	if spatial == 1 {
		tensor.BNParamGrads(dgamma, dbeta, dyd, xh)
	} else {
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				for s := off; s < off+spatial; s++ {
					dgamma[ch] += float64(dyd[s]) * float64(xh[s])
					dbeta[ch] += float64(dyd[s])
				}
			}
		}
	}
	if bn.frozen {
		return
	}
	gg, bg := bn.gamma.Grad().Data(), bn.beta.Grad().Data()
	for c := 0; c < cc; c++ {
		gg[c] += float32(dgamma[c])
		bg[c] += float32(dbeta[c])
	}
}

// OutputShape implements Layer.
func (bn *BatchNorm) OutputShape(in []int) ([]int, error) {
	if len(in) != 1 && len(in) != 3 {
		return nil, fmt.Errorf("nn: batchnorm %q: per-sample shape %v", bn.name, in)
	}
	if in[0] != bn.channels {
		return nil, fmt.Errorf("nn: batchnorm %q: channels %d, want %d", bn.name, in[0], bn.channels)
	}
	return append([]int(nil), in...), nil
}

// FLOPsPerSample implements Layer.
func (bn *BatchNorm) FLOPsPerSample(in []int) int64 {
	return 4 * int64(tensor.Volume(in))
}
