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

	// Cached state from the last training-mode forward. An evaluation
	// forward keeps xhat's buffer for the next training forward and marks it
	// stale: Backward then has no xhat and adds no γ/β gradient.
	xhat      *tensor.Tensor
	xhatStale bool
	invStd    []float64
	inShape   []int
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

	// lanes64 and lanes32 hold per-channel operands repeated across their
	// planes (perLane), sized once per input geometry.
	lanes64 [4][]float64
	lanes32 [2][]float32
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

// perLane returns v with each value repeated spatial times, in buf's
// storage: the per-channel operand of the (N, C·spatial) view in which a
// rank-4 input (N, C, H, W) is a rank-2 one, so both ranks run one lane
// kernel per pass. At spatial 1 it is v itself.
func perLane[T float32 | float64](buf *[]T, v []T, spatial int) []T {
	if spatial == 1 {
		return v
	}
	if len(*buf) != len(v)*spatial {
		*buf = make([]T, len(v)*spatial)
	}
	out := *buf
	for c, x := range v {
		lane := out[c*spatial : (c+1)*spatial]
		for ; len(lane) >= 4; lane = lane[4:] {
			lane[0], lane[1], lane[2], lane[3] = x, x, x, x
		}
		for k := range lane {
			lane[k] = x
		}
	}
	return out
}

// Forward implements Layer. Each pass is one tensor kernel for both ranks:
// the statistics are plane sums, and the per-element passes run the rank-2
// kernels over the (N, C·spatial) view.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, spatial := bn.geometry(x)
	bn.ensureChannelBufs()
	bn.inShape = captureShape(bn.inShape, x)
	bn.y = tensor.Ensure(bn.y, bn.inShape...)
	xd, yd := x.Data(), bn.y.Data()
	gd, bd := bn.gamma.W.Data(), bn.beta.W.Data()
	rm, rv := bn.runMean.Data(), bn.runVar.Data()
	mean, invStd := bn.mean, bn.invStd
	l64, l32 := &bn.lanes64, &bn.lanes32

	if train && !bn.frozen && n*spatial > 1 {
		variance := bn.variance
		clear(mean)
		clear(variance)
		// Two-pass statistics in float64: each (sample, channel) plane sums
		// from +0, and the plane sums add up per channel in sample order.
		tensor.BNPlaneSum(mean, xd, spatial)
		m := float64(n * spatial)
		for c := range mean {
			mean[c] /= m
		}
		tensor.BNPlaneSqDev(variance, mean, xd, spatial)
		for c := range variance {
			variance[c] /= m
			rm[c] = float32((1-bn.momentum)*float64(rm[c]) + bn.momentum*mean[c])
			rv[c] = float32((1-bn.momentum)*float64(rv[c]) + bn.momentum*variance[c])
			invStd[c] = 1.0 / math.Sqrt(variance[c]+bn.eps)
		}
		bn.xhat, bn.xhatStale = tensor.Ensure(bn.xhat, bn.inShape...), false
		tensor.BNNormalize(bn.xhat.Data(), yd, xd,
			perLane(&l64[0], mean, spatial), perLane(&l64[1], invStd, spatial),
			perLane(&l32[0], gd, spatial), perLane(&l32[1], bd, spatial))
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
	tensor.BNNormalizeRunning(yd, xd,
		perLane(&l64[0], mean, spatial), perLane(&l64[1], invStd, spatial),
		perLane(&l64[2], g64, spatial), perLane(&l64[3], b64, spatial))
	if train && !bn.frozen {
		// n·spatial <= 1: at most one value per channel, value c channel c's.
		bn.xhat, bn.xhatStale = tensor.Ensure(bn.xhat, bn.inShape...), false
		xh := bn.xhat.Data()
		for c, v := range xd {
			xh[c] = float32((float64(v) - mean[c]) * invStd[c])
		}
	} else {
		bn.xhatStale = true
	}
	bn.evalBackward = true
	return bn.y
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	n, spatial := bn.geometry(dy)
	m := float64(n * spatial)
	dyd := dy.Data()
	gd := bn.gamma.W.Data()
	l64 := &bn.lanes64

	haveXhat := bn.xhat != nil && !bn.xhatStale
	if !haveXhat || bn.evalBackward {
		if bn.invStd == nil {
			panic("nn: batchnorm " + bn.name + ": Backward without Forward")
		}
		// Running-statistics normalization: the statistics do not depend on
		// the batch, so dx decouples to dy·γ·invStd; dγ/dβ accumulate from
		// the cached xhat when the layer is trainable.
		if !bn.frozen && haveXhat {
			bn.paramGrads(dyd, bn.xhat.Data(), spatial)
		}
		if !needDx {
			return nil
		}
		bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
		dxd := bn.dx.Data()
		for c, v := range gd {
			bn.gamma64[c] = float64(v)
		}
		g, is := perLane(&l64[0], bn.gamma64, spatial), perLane(&l64[1], bn.invStd, spatial)
		for r := 0; r < len(dyd); r += len(g) {
			for j, gj := range g {
				// Left-to-right as in the original formula dy·γ·invStd.
				dxd[r+j] = float32(float64(dyd[r+j]) * gj * is[j])
			}
		}
		return bn.dx
	}

	xh := bn.xhat.Data()
	bn.paramGrads(dyd, xh, spatial)
	if !needDx {
		return nil
	}
	// dx = gamma*invStd/m * (m*dy - dbeta - xhat*dgamma), the per-channel
	// factor once per channel instead of once per element.
	scale := bn.scale
	for ch := range scale {
		scale[ch] = float64(gd[ch]) * bn.invStd[ch] / m
	}
	bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
	tensor.BNInputGrad(bn.dx.Data(), dyd, xh, perLane(&l64[0], scale, spatial),
		perLane(&l64[1], bn.dbeta, spatial), perLane(&l64[2], bn.dgamma, spatial), m)
	return bn.dx
}

// paramGrads sums dγ_c = Σ dy·xhat and dβ_c = Σ dy over batch and space into
// the float64 scratch and, unless the layer is frozen, adds them to the
// parameter gradients.
func (bn *BatchNorm) paramGrads(dyd, xh []float32, spatial int) {
	dgamma, dbeta := bn.dgamma, bn.dbeta
	clear(dgamma)
	clear(dbeta)
	tensor.BNPlaneParamGrads(dgamma, dbeta, dyd, xh, spatial)
	if bn.frozen {
		return
	}
	gg, bg := bn.gamma.Grad().Data(), bn.beta.Grad().Data()
	for c := range dgamma {
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
