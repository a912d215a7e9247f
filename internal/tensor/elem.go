package tensor

import "math"

// Lane kernels: the element-wise loops of a training step, its optimizer
// step and the server's fold. A lane is one element, or one column (channel)
// of a row-major matrix whose column count is the length of its per-channel
// operands; the BN kernels work in float64. Each kernel runs its vector body
// (elem_avx2_amd64.s on the avx2 and avx512 tiers, whole 8-lane chunks) and
// then the portable reference below from the first lane the body left: lane
// 0 on the sse and portable tiers, the tail elsewhere. kernel.go states the
// lane contract the bodies keep. PackTranspose (matmul.go) runs its whole
// 8×8 blocks the same way and finishes the right and bottom strips in
// packTransposeGo.

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

// SGDPlain takes one plain SGD step, w += -lr·g, and zeroes g.
func SGDPlain(w, g []float32, lr float32) { sgdPlainGo(w, g, lr, sgdPlainVec(w, g, lr)) }

// SGDMomentum takes one heavy-ball step, v = mom·v + g then w += -lr·v, and
// zeroes g.
func SGDMomentum(w, g, v []float32, lr, mom float32) {
	sgdMomentumGo(w, g, v, lr, mom, sgdMomentumVec(w, g, v, lr, mom))
}

// SGDGeneral takes one step in the modes that amend the gradient — weight
// decay g += wd·w when decay is set, the proximal term g += mu·(w - a) when
// a is not nil — or look ahead (Nesterov, when mom > 0), and zeroes g.
func SGDGeneral(w, g, v, a []float32, lr, mom, wd, mu float32, decay, nesterov bool) {
	sgdGeneralGo(w, g, v, a, lr, mom, wd, mu, decay, nesterov,
		sgdGeneralVec(w, g, v, a, lr, mom, wd, mu, decay, mom > 0, nesterov))
}

// The portable references. Each starts at element or column from; the
// column kernels take the column count from their first per-channel operand.
// The optimizer and fold references write a product that feeds an add as
// float32(a*b), which no target may fuse into one rounding with the add.

// packTransposeGo writes the transpose of src (rows, cols) into dst (cols,
// rows), skipping the whole 8×8 blocks of the first done rows: those rows
// start at column cols&^7, the others at 0.
func packTransposeGo(dst, src []float32, rows, cols, done int) {
	for r := 0; r < rows; r++ {
		from := 0
		if r < done {
			from = cols &^ 7
		}
		for c, v := range src[r*cols+from : r*cols+cols] {
			dst[(from+c)*rows+r] = v
		}
	}
}

func scaleFromGo(dst, x []float32, a float32, from int) {
	dst = dst[:len(x)]
	for i := from; i < len(x); i++ {
		dst[i] = x[i] * a
	}
}

func axpyGo(dst, x []float32, a float32, from int) {
	dst = dst[:len(x)]
	for i := from; i < len(x); i++ {
		dst[i] += float32(a * x[i])
	}
}

// isFiniteGo reports whether x[from:] holds no NaN or Inf. v-v is 0 for a
// finite v and NaN otherwise, and NaN survives every later addition, so the
// scan is eight independent running sums and one comparison.
func isFiniteGo(x []float32, from int) bool {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	d := x[from:]
	for ; len(d) >= 8; d = d[8:] {
		a0 += d[0] - d[0]
		a1 += d[1] - d[1]
		a2 += d[2] - d[2]
		a3 += d[3] - d[3]
		a4 += d[4] - d[4]
		a5 += d[5] - d[5]
		a6 += d[6] - d[6]
		a7 += d[7] - d[7]
	}
	for _, v := range d {
		a0 += v - v
	}
	s := a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	return s == s
}

func sgdPlainGo(w, g []float32, lr float32, from int) {
	nlr := -lr
	g = g[:len(w)]
	for j := from; j < len(w); j++ {
		w[j] += float32(nlr * g[j])
		g[j] = 0
	}
}

func sgdMomentumGo(w, g, v []float32, lr, mom float32, from int) {
	nlr := -lr
	g, v = g[:len(w)], v[:len(w)]
	for j := from; j < len(w); j++ {
		v[j] = float32(mom*v[j]) + g[j]
		w[j] += float32(nlr * v[j])
		g[j] = 0
	}
}

func sgdGeneralGo(w, g, v, a []float32, lr, mom, wd, mu float32, decay, nesterov bool, from int) {
	nlr := -lr
	for j := from; j < len(w); j++ {
		gj := g[j]
		if decay {
			gj += float32(wd * w[j])
		}
		if a != nil {
			gj += float32(mu * (w[j] - a[j]))
		}
		switch {
		case mom > 0 && nesterov:
			v[j] = float32(mom*v[j]) + gj
			w[j] -= float32(lr * (gj + float32(mom*v[j])))
		case mom > 0:
			v[j] = float32(mom*v[j]) + gj
			w[j] += float32(nlr * v[j])
		default:
			w[j] += float32(nlr * gj)
		}
		g[j] = 0
	}
}

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
