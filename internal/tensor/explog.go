package tensor

import "math"

// The repository's exp and log. Go's math.Exp follows the CPU: on amd64 it
// evaluates its polynomial with fused multiply-adds when the CPU has FMA and
// with separate multiplies and adds otherwise, so the same program gives
// other bits on another host. Exp is the FMA path of that routine
// ($GOROOT/src/math/exp_amd64.s) in Go, every fused step an explicit
// math.FMA, so it gives those bits on every host; Log is
// $GOROOT/src/math/log_amd64.s in Go, every product that feeds an add or a
// subtraction written as float64(a*b) so no target fuses it. Both are
// bit-equal to math.Exp and math.Log on an amd64 host with FMA, special
// cases included (FuzzExpMatchesMath, FuzzLogMatchesMath).
//
// The softmax, cross-entropy and entropy lane kernels (softmax.go) run the
// same operations in four float64 lanes and leave every lane that reaches a
// special case to these functions.

const (
	expLog2e    = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2U     = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
	expOverflow = 7.09782712893384e+02

	expC2 = 0.5
	expC3 = 1.6666666666666666667e-1
	expC4 = 4.1666666666666666667e-2
	expC5 = 8.3333333333333333333e-3
	expC6 = 1.3888888888888888889e-3
	expC7 = 1.9841269841269841270e-4
	expC8 = 2.4801587301587301587e-5
)

// Exp returns e**x, bit for bit what math.Exp returns on an amd64 host with
// FMA: +Inf above 709.78, +0 at -Inf and below the smallest subnormal, x
// itself for NaN and +Inf.
func Exp(x float64) float64 {
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= 0x7FF0000000000000: // ±Inf or NaN
		if bits == 0xFFF0000000000000 {
			return 0
		}
		return x
	case x > expOverflow:
		return math.Inf(1)
	}
	t := expLog2e * x
	ki := cvtsd2sl(t)
	k := float64(ki)
	r := math.FMA(-expLn2U, k, x)
	r = math.FMA(-expLn2L, k, r)
	r *= 0.0625
	p := math.FMA(expC8, r, expC7)
	p = math.FMA(p, r, expC6)
	p = math.FMA(p, r, expC5)
	p = math.FMA(p, r, expC4)
	p = math.FMA(p, r, expC3)
	p = math.FMA(p, r, expC2)
	p = math.FMA(p, r, 1)
	// Four squarings undo the reduction by 16: (1+y)² - 1 = y·(y + 2).
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r+2, r, 1)
	return expScale(r, ki)
}

// expScale returns r·2**k as exp_amd64.s's ldexp does: +Inf past the
// largest exponent, two steps through 2**-1022 into the subnormals, +0 below
// them.
func expScale(r float64, k int32) float64 {
	b := k + 0x3FF
	switch {
	case b >= 0x7FF:
		return math.Inf(1)
	case b <= 0:
		if b < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(b+0x3FE) << 52)
		b = 1
	}
	return r * math.Float64frombits(uint64(b)<<52)
}

// cvtsd2sl is CVTSD2SL under Go's rounding mode: t rounded to the nearest
// int32, ties to even, and the integer indefinite value -1<<31 where that
// does not fit (NaN never reaches it).
func cvtsd2sl(t float64) int32 {
	r := math.RoundToEven(t)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

const (
	logHSqrt2 = 7.07106781186547524401e-01 // sqrt(2)/2
	logLn2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	logLn2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	logL1     = 6.666666666666735130e-01   // 0x3FE5555555555593
	logL2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
	logL3     = 2.857142874366239149e-01   // 0x3FD2492494229359
	logL4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	logL5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	logL6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	logL7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	logNaN    = 0x7FF8000000000001
)

// Log returns the natural logarithm of x, bit for bit what math.Log returns
// on amd64: -Inf at ±0, a NaN for negative x (and for a negative-signed
// NaN), x itself for +Inf and NaN. Like log_amd64.s it reads a subnormal's
// fraction as if it were normal.
func Log(x float64) float64 {
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) == 0:
		return math.Inf(-1)
	case int64(bits) < 0:
		return math.Float64frombits(logNaN)
	case bits >= 0x7FF0000000000000:
		return x
	}
	f1 := math.Float64frombits(bits&(1<<52-1) | 0x3FE0000000000000)
	k := float64(int32(bits>>52&0x7FF) - 0x3FE)
	if !(logHSqrt2 < f1) {
		k--
		f1 = float64(f1 * 2)
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (float64(s4*(float64(s4*(float64(s4*logL7)+logL5))+logL3)) + logL1))
	t2 := float64(s4 * (float64(s4*(float64(s4*logL6)+logL4)) + logL2))
	hfsq := float64(0.5 * f * f)
	return float64(k*logLn2Hi) - (hfsq - (float64(s*(hfsq+(t1+t2))) + float64(k*logLn2Lo)) - f)
}
