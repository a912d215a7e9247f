package tensor

import "math"

// Lane kernels: the element-wise loops of a training step, its optimizer
// step and the server's fold. A lane is one element, or one column (channel)
// of a row-major matrix whose column count is the length of its per-channel
// operands; the BN kernels work in float64. BatchNorm's sums over a rank-4
// input are plane kernels: a lane is a (sample, channel) plane of spatial
// values, whose sum is one chain of its own. Each kernel runs its vector body
// (elem_avx2_amd64.s on the avx2 and avx512 tiers, whole 8-lane chunks) and
// then the portable reference below from the first lane the body left: lane
// 0 on the sse and portable tiers, the tail elsewhere. kernel.go states the
// lane contract the bodies keep. PackTranspose (matmul.go) runs its whole
// 8×8 blocks the same way and finishes the right and bottom strips in
// packTransposeGo. The int8 codec's kernels are lane kernels too; a lane of
// QuantizeInt8Pair is an element of either block. So are k-means' distance
// pass, CenterDistances, whose lane is one center, its nearest-center pick,
// NearestLanes, which reduces a row's lanes, and its center update,
// SumRowsByGroup, whose lane is one column of one group.

// ReLU writes x to dst with every lane x < 0 replaced by +0; NaN and -0 pass.
func ReLU(dst, x []float32) { reluGo(dst, x, reluVec(dst, x)) }

// ReLUGrad writes dy to dst where y > 0 and +0 elsewhere (NaN y included).
func ReLUGrad(dst, dy, y []float32) { reluGradGo(dst, dy, y, reluGradVec(dst, dy, y)) }

// BNPlaneSum adds the sums of x's planes to sum in float64. x holds whole
// samples of len(sum) planes of spatial values each, channel after channel;
// each plane sums its values from +0 in ascending order, and the plane sums
// add to their channel's in ascending sample order. At spatial 1 a plane is
// one value and the kernel is the column sum, one lane per channel.
func BNPlaneSum(sum []float64, x []float32, spatial int) {
	if spatial == 1 {
		bnColSumGo(sum, x, bnColSumVec(sum, x))
		return
	}
	bnPlaneSumGo(sum, x, spatial, bnPlaneSumVec(sum, x, spatial))
}

// BNPlaneSqDev is BNPlaneSum over float64(d*d), d = float64(x) - mean of
// the plane's channel: it adds the squared deviations to sq.
func BNPlaneSqDev(sq, mean []float64, x []float32, spatial int) {
	if spatial == 1 {
		bnColSqDevGo(sq, mean, x, bnColSqDevVec(sq, mean, x))
		return
	}
	bnPlaneSqDevGo(sq, mean, x, spatial, bnPlaneSqDevVec(sq, mean, x, spatial))
}

// BNPlaneParamGrads adds dy·xhat to dgamma and dy to dbeta, each channel one
// chain over its planes' values in (sample, spatial) order; dy and xhat are
// laid out as BNPlaneSum's x.
func BNPlaneParamGrads(dgamma, dbeta []float64, dy, xhat []float32, spatial int) {
	if spatial == 1 {
		bnParamGradsGo(dgamma, dbeta, dy, xhat, bnParamGradsVec(dgamma, dbeta, dy, xhat))
		return
	}
	bnPlaneParamGradsGo(dgamma, dbeta, dy, xhat, spatial,
		bnPlaneParamGradsVec(dgamma, dbeta, dy, xhat, spatial))
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

// SGDProx takes one FedProx step: the proximal term g += mu·(w - a), then a
// heavy-ball step as SGDMomentum's when mom > 0 and a plain one as SGDPlain's
// otherwise, and zeroes g.
func SGDProx(w, g, v, a []float32, lr, mom, mu float32) {
	sgdProxGo(w, g, v, a, lr, mom, mu, sgdProxVec(w, g, v, a, lr, mom, mu, mom > 0))
}

// DeltaMaxAbs writes x - ref into delta, every NaN and ±Inf difference as
// +0, and returns the largest magnitude among the differences, NaNs left out
// and infinities counted: a quantizing codec's block scale before its
// divisor. delta sets the length.
func DeltaMaxAbs(delta, x, ref []float32) float32 {
	from, maxBits := deltaMaxAbsVec(delta, x, ref)
	return deltaMaxAbsGo(delta, x, ref, from, maxBits)
}

// QuantBlock is the block length of QuantizeInt8Pair: the int8 codec's
// scale group.
const QuantBlock = 64

// QuantizeInt8Pair quantizes two blocks of deltas, each with the next
// QuantBlock draws of its own Splitmix64 chain, and advances both chains. A
// draw u is the top 32 bits of the state after a step (state =
// Splitmix64(state)), and each finite delta·inv rounds stochastically to an
// int8 in [-127, 127]: up from its floor when u is below the fraction scaled
// to 2^32. Every lane is quantized: lanes past the end of a shorter block
// are the caller's to ignore. The vector body interleaves the quantizing
// with the two chains' steps, whose latency leaves the core mostly idle, two
// groups of eight lanes behind them.
func QuantizeInt8Pair(qa, qb *[QuantBlock]byte, da, db *[QuantBlock]float32, inva, invb float64, sa, sb *uint64) {
	if quantizeInt8PairVec(qa, qb, da, db, inva, invb, sa, sb) == 0 {
		quantizeInt8PairGo(qa, qb, da, db, inva, invb, sa, sb)
	}
}

// DequantizeInt8 writes dst = ref + scale·float32(int8(q)). q sets the length.
func DequantizeInt8(dst, ref []float32, q []byte, scale float32) {
	dequantizeInt8Go(dst, ref, q, scale, dequantizeInt8Vec(dst, ref, q, scale))
}

// CenterDistances writes the squared Euclidean distance from every row of x
// (dim values each, dim > 0) to every center into dist, row r's distance to
// center c at dist[r·kp+c], where kp is len(ct)/dim: ct holds the centers
// transposed, dimension j of center c at ct[j·kp+c]. A lane is one center,
// and its sum starts from +0 and adds float64(e·e), e = float64(x) - c, one
// dimension after another. The vector body runs every row when kp is a
// multiple of 4 (four float64 lanes per register, so callers pad the
// centers), and none otherwise.
func CenterDistances(dist []float64, x []float32, ct []float64, dim int) {
	kp, rows := len(ct)/dim, len(x)/dim
	dist, x, ct = dist[:rows*kp], x[:rows*dim], ct[:kp*dim]
	centerDistancesGo(dist, x, ct, dim, centerDistancesVec(dist, x, ct, dim, kp))
}

// NearestLanes writes into dst[r] the lane of row r of dist (len(dist) /
// len(dst) lanes a row) that holds the smallest distance, under k-means'
// serial rule: the first strictly smaller value wins, so ties go to the lower
// lane, a NaN never wins and a NaN in lane 0 keeps 0. The values must be
// distances, +0 to +Inf or NaN; padding lanes that hold NaN, as
// CenterDistances gives under NaN centers, are therefore never chosen. The
// vector body runs every row when the lane count is a multiple of 4, and
// none otherwise.
func NearestLanes(dst []int32, dist []float64) {
	if len(dst) == 0 {
		return
	}
	kp := len(dist) / len(dst)
	dist = dist[:len(dst)*kp]
	nearestLanesGo(dst, dist, nearestLanesVec(dst, dist, kp))
}

// SumRowsByGroup adds, one row after another, the first w values of each row
// of x (rows start stride values apart) to the row of sum that group names:
// row i to sum[group[i]·w : group[i]·w+w], lane j taking float64(x) in row
// order, as a k-means center update sums its clusters' members. group sets
// the row count. The vector body does whole 4-lane chunks of a row and the
// rest lane by lane; it stops at a group outside sum, where the reference
// panics.
func SumRowsByGroup(sum []float64, x []float32, group []int32, w, stride int) {
	if len(group) == 0 || w == 0 {
		return
	}
	x = x[:(len(group)-1)*stride+w]
	sumRowsByGroupGo(sum, x, group, w, stride, sumRowsByGroupVec(sum, x, group, w, stride))
}

// The portable references. Each starts at element or column from; the
// column kernels take the column count from their first per-channel operand.
// The optimizer, fold, codec and k-means references write a product that
// feeds an add or a subtraction as float32(a*b) or float64(a*b), which no
// target may fuse into one rounding with it.

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

// centerDistancesGo continues CenterDistances from row from.
func centerDistancesGo(dist []float64, x []float32, ct []float64, dim, from int) {
	kp := len(ct) / dim
	for r := from; r < len(x)/dim; r++ {
		row := x[r*dim : (r+1)*dim]
		for c := range kp {
			var d float64
			for j, v := range row {
				e := float64(v) - ct[j*kp+c]
				d += float64(e * e)
			}
			dist[r*kp+c] = d
		}
	}
}

// nearestLanesGo continues NearestLanes from row from. The bits of the
// non-negative distances order like their values, with every NaN, either
// sign, above +Inf once the sign bit is cleared; so after lane 0 is known
// not to be NaN, comparing those bits is comparing the distances under the
// rule, and the comparison compiles to conditional moves, not a branch the
// predictor cannot learn.
func nearestLanesGo(dst []int32, dist []float64, from int) {
	kp := len(dist) / len(dst)
	for r := from; r < len(dst); r++ {
		d := dist[r*kp : (r+1)*kp]
		best, bestBits := 0, math.Float64bits(d[0])&^(1<<63)
		if bestBits <= 0x7FF0000000000000 {
			for c := 1; c < len(d); c++ {
				if b := math.Float64bits(d[c]) &^ (1 << 63); b < bestBits {
					best, bestBits = c, b
				}
			}
		}
		dst[r] = int32(best)
	}
}

// sumRowsByGroupGo continues SumRowsByGroup from row from.
func sumRowsByGroupGo(sum []float64, x []float32, group []int32, w, stride, from int) {
	for i := from; i < len(group); i++ {
		s := sum[int(group[i])*w:][:w]
		for j, v := range x[i*stride:][:w] {
			s[j] += float64(v)
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

// deltaMaxAbsGo continues DeltaMaxAbs from element from with the body's
// maximum magnitude bits. The masks come from the magnitude's bits without a
// branch: the bits of non-negative floats order like their values, with the
// NaNs above +Inf.
func deltaMaxAbsGo(delta, x, ref []float32, from int, maxBits uint32) float32 {
	x, ref = x[:len(delta)], ref[:len(delta)]
	for j := from; j < len(delta); j++ {
		bits := math.Float32bits(x[j] - ref[j])
		abs := bits &^ (1 << 31)
		nan := uint32(int32(0x7f800000-abs) >> 31)       // all ones when abs > +Inf
		nonFinite := uint32(int32(0x7f7fffff-abs) >> 31) // all ones when abs > MaxFloat32
		maxBits = max(maxBits, abs&^nan)
		delta[j] = math.Float32frombits(bits &^ nonFinite)
	}
	return math.Float32frombits(maxBits)
}

// quantizeInt8Go is QuantizeInt8Pair's quantizing, on one block and its
// draws. It takes q = delta·inv up from floor(q) when the draw is below
// t, the fraction q - floor(q) scaled to 2^32. The float64 difference u - t
// has the sign of the exact one and is never -0 (x - x is +0), so its sign
// bit is the comparison u < t without a branch. Under a subnormal scale |q|
// can pass 127 but stays below 191, so the int32 conversion is exact before
// the clamp to ±127.
func quantizeInt8Go(dst []byte, delta []float32, u []uint32, inv float64) {
	dst, u = dst[:len(delta)], u[:len(delta)]
	for j := range delta {
		q := float64(float64(delta[j]) * inv)
		lo := math.Floor(q)
		t := float64((q - lo) * 4294967296.0)
		up := int32(math.Float64bits(float64(u[j])-t) >> 63)
		dst[j] = byte(int8(min(max(int32(lo)+up, -127), 127)))
	}
}

func quantizeInt8PairGo(qa, qb *[QuantBlock]byte, da, db *[QuantBlock]float32, inva, invb float64, sa, sb *uint64) {
	var ua, ub [QuantBlock]uint32
	SplitmixDrawsPair(ua[:], ub[:], sa, sb)
	quantizeInt8Go(qa[:], da[:], ua[:], inva)
	quantizeInt8Go(qb[:], db[:], ub[:], invb)
}

func dequantizeInt8Go(dst, ref []float32, q []byte, scale float32, from int) {
	dst, ref = dst[:len(q)], ref[:len(q)]
	for j := from; j < len(q); j++ {
		dst[j] = ref[j] + float32(scale*float32(int8(q[j])))
	}
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

func sgdProxGo(w, g, v, a []float32, lr, mom, mu float32, from int) {
	nlr := -lr
	g, v, a = g[:len(w)], v[:len(w)], a[:len(w)]
	for j := from; j < len(w); j++ {
		gj := g[j] + float32(mu*(w[j]-a[j]))
		if mom > 0 {
			v[j] = float32(mom*v[j]) + gj
			gj = v[j]
		}
		w[j] += float32(nlr * gj)
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

// The plane references continue from channel from: every sample's planes of
// channels from and up, each plane's chain and each channel's adds in the
// order the kernels state. A trailing part of a sample is left alone.

func bnPlaneSumGo(sum []float64, x []float32, spatial, from int) {
	cs := len(sum) * spatial
	for i := 0; cs > 0 && i+cs <= len(x); i += cs {
		for ch := from; ch < len(sum); ch++ {
			var s float64
			for _, v := range x[i+ch*spatial : i+(ch+1)*spatial] {
				s += float64(v)
			}
			sum[ch] += s
		}
	}
}

func bnPlaneSqDevGo(sq, mean []float64, x []float32, spatial, from int) {
	cs := len(sq) * spatial
	for i := 0; cs > 0 && i+cs <= len(x); i += cs {
		for ch := from; ch < len(sq); ch++ {
			var s float64
			for _, v := range x[i+ch*spatial : i+(ch+1)*spatial] {
				d := float64(v) - mean[ch]
				s += float64(d * d)
			}
			sq[ch] += s
		}
	}
}

func bnPlaneParamGradsGo(dgamma, dbeta []float64, dy, xhat []float32, spatial, from int) {
	cs := len(dgamma) * spatial
	for i := 0; cs > 0 && i+cs <= len(dy); i += cs {
		for ch := from; ch < len(dgamma); ch++ {
			g, b := dgamma[ch], dbeta[ch]
			xh := xhat[i+ch*spatial : i+(ch+1)*spatial]
			for k, v := range dy[i+ch*spatial : i+(ch+1)*spatial] {
				g += float64(float64(v) * float64(xh[k]))
				b += float64(v)
			}
			dgamma[ch], dbeta[ch] = g, b
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
			dgamma[ch] += float64(float64(dy[i+ch]) * float64(xhat[i+ch]))
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
