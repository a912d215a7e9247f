package tensor

import "math"

// Lane kernels: the element-wise loops of a training step. A lane is one
// element, or one column (channel) of a row-major matrix whose column count
// is the length of its per-channel operands; the BN kernels work in float64.
// Each kernel runs its vector body (elem_avx2_amd64.s on the avx2 and avx512
// tiers, whole 8-lane chunks) and then the portable reference below from
// the first lane the body left: lane 0 on the sse and portable tiers, the
// tail elsewhere. kernel.go states the lane contract the bodies keep.

// ReLU writes x to dst with every lane x < 0 replaced by +0; NaN and -0 pass.
func ReLU(dst, x []float32) { reluGo(dst, x, reluVec(dst, x)) }

// ReLUGrad writes dy to dst where y > 0 and +0 elsewhere (NaN y included).
func ReLUGrad(dst, dy, y []float32) { reluGradGo(dst, dy, y, reluGradVec(dst, dy, y)) }

// BNColSum adds the columns of x to sum in float64, one row after another.
func BNColSum(sum []float64, x []float32) { bnColSumGo(sum, x, bnColSumVec(sum, x)) }

// BNColSqDev adds (x - mean)² to sq in float64, one row after another.
func BNColSqDev(sq, mean []float64, x []float32) {
	bnColSqDevGo(sq, mean, x, bnColSqDevVec(sq, mean, x))
}

// BNNormalize writes xhat = float32((x - mean)·invStd) and y = γ·xhat + β.
func BNNormalize(xhat, y, x []float32, mean, invStd []float64, gamma, beta []float32) {
	bnNormalizeGo(xhat, y, x, mean, invStd, gamma, beta,
		bnNormalizeVec(xhat, y, x, mean, invStd, gamma, beta))
}

// BNNormalizeRunning writes y = float32(γ·((x - mean)·invStd) + β) in float64.
func BNNormalizeRunning(y, x []float32, mean, invStd, gamma, beta []float64) {
	bnNormalizeRunningGo(y, x, mean, invStd, gamma, beta,
		bnNormalizeRunningVec(y, x, mean, invStd, gamma, beta))
}

// BNParamGrads adds dy·xhat to dgamma and dy to dbeta, one row after another.
func BNParamGrads(dgamma, dbeta []float64, dy, xhat []float32) {
	bnParamGradsGo(dgamma, dbeta, dy, xhat, bnParamGradsVec(dgamma, dbeta, dy, xhat))
}

// BNInputGrad writes dx = float32(scale·(m·dy - dbeta - xhat·dgamma)).
func BNInputGrad(dx, dy, xhat []float32, scale, dbeta, dgamma []float64, m float64) {
	bnInputGradGo(dx, dy, xhat, scale, dbeta, dgamma, m,
		bnInputGradVec(dx, dy, xhat, scale, dbeta, dgamma, m))
}

// The portable references. Each starts at element or column from; the
// column kernels take the column count from their first per-channel operand.

func reluGo(dst, x []float32, from int) {
	dst = dst[:len(x)]
	for i := from; i < len(x); i++ {
		b := math.Float32bits(x[i])
		// x < 0 exactly when the bits lie in (0x80000000, 0xFF800000]: past
		// -0, up to -Inf, short of the negative NaNs. The 64-bit subtraction
		// borrows on that range and the shift smears the borrow into a mask.
		neg := uint32(int64(uint64(b-0x80000001)-0x7F800000) >> 63)
		dst[i] = math.Float32frombits(b &^ neg)
	}
}

func reluGradGo(dst, dy, y []float32, from int) {
	dst, y = dst[:len(dy)], y[:len(dy)]
	for i := from; i < len(dy); i++ {
		// y > 0 exactly when its bits lie in [1, 0x7F800000]: past +0, up to
		// +Inf, short of the positive NaNs.
		pos := uint32(int64(uint64(math.Float32bits(y[i])-1)-0x7F800000) >> 63)
		dst[i] = math.Float32frombits(math.Float32bits(dy[i]) & pos)
	}
}

func addGo(dst, src []float32, from int) {
	dst = dst[:len(src)]
	for i := from; i < len(src); i++ {
		dst[i] += src[i]
	}
}

func addRowGo(dst, v []float32, from int) {
	for i := 0; i < len(dst); i += len(v) {
		row := dst[i : i+len(v)]
		for j := from; j < len(v); j++ {
			row[j] += v[j]
		}
	}
}

func sumRowsGo(dst, x []float32, from int) {
	for j := from; j < len(dst); j++ {
		var sum float32
		for i := j; i < len(x); i += len(dst) {
			sum += x[i]
		}
		dst[j] += sum
	}
}

func bnColSumGo(sum []float64, x []float32, from int) {
	for i := 0; i < len(x); i += len(sum) {
		for ch := from; ch < len(sum); ch++ {
			sum[ch] += float64(x[i+ch])
		}
	}
}

func bnColSqDevGo(sq, mean []float64, x []float32, from int) {
	for i := 0; i < len(x); i += len(sq) {
		for ch := from; ch < len(sq); ch++ {
			d := float64(x[i+ch]) - mean[ch]
			sq[ch] += float64(d * d)
		}
	}
}

func bnNormalizeGo(xhat, y, x []float32, mean, invStd []float64, gamma, beta []float32, from int) {
	for i := 0; i < len(x); i += len(mean) {
		for ch := from; ch < len(mean); ch++ {
			xh := float32((float64(x[i+ch]) - mean[ch]) * invStd[ch])
			xhat[i+ch] = xh
			y[i+ch] = gamma[ch]*xh + beta[ch]
		}
	}
}

func bnNormalizeRunningGo(y, x []float32, mean, invStd, gamma, beta []float64, from int) {
	for i := 0; i < len(x); i += len(mean) {
		for ch := from; ch < len(mean); ch++ {
			xh := (float64(x[i+ch]) - mean[ch]) * invStd[ch]
			y[i+ch] = float32(gamma[ch]*xh + beta[ch])
		}
	}
}

func bnParamGradsGo(dgamma, dbeta []float64, dy, xhat []float32, from int) {
	for i := 0; i < len(dy); i += len(dgamma) {
		for ch := from; ch < len(dgamma); ch++ {
			dgamma[ch] += float64(dy[i+ch]) * float64(xhat[i+ch])
			dbeta[ch] += float64(dy[i+ch])
		}
	}
}

func bnInputGradGo(dx, dy, xhat []float32, scale, dbeta, dgamma []float64, m float64, from int) {
	for i := 0; i < len(dy); i += len(scale) {
		for ch := from; ch < len(scale); ch++ {
			dx[i+ch] = float32(scale[ch] * (m*float64(dy[i+ch]) - dbeta[ch] - float64(xhat[i+ch])*dgamma[ch]))
		}
	}
}
