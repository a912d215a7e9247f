//go:build amd64 && !noasm

package tensor

// The lane kernels' vector bodies (elem_avx2_amd64.s). Each returns the
// first lane it left to the portable reference: 0 unless elemAVX2 is set.
// packTransposeVec returns the rows whose whole 8×8 blocks it wrote,
// isFiniteVec 0 when its chunks hold a NaN or an Inf, leaving the verdict
// to the reference, deltaMaxAbsVec also the largest magnitude bits of the
// lanes it did, quantizeInt8PairVec all QuantBlock lanes or none, and
// centerDistancesVec and nearestLanesVec all rows or none, and
// sumRowsByGroupVec the rows before the first whose group lies outside sum.

//go:noescape
func reluVec(dst, x []float32) int

//go:noescape
func reluGradVec(dst, dy, y []float32) int

//go:noescape
func addVec(dst, src []float32) int

//go:noescape
func addRowVec(dst, v []float32) int

//go:noescape
func sumRowsVec(dst, x []float32) int

//go:noescape
func bnColSumVec(sum []float64, x []float32) int

//go:noescape
func bnColSqDevVec(sq, mean []float64, x []float32) int

//go:noescape
func bnNormalizeVec(xhat, y, x []float32, mean, invStd []float64, gamma, beta []float32) int

//go:noescape
func bnNormalizeRunningVec(y, x []float32, mean, invStd, gamma, beta []float64) int

//go:noescape
func bnParamGradsVec(dgamma, dbeta []float64, dy, xhat []float32) int

//go:noescape
func bnInputGradVec(dx, dy, xhat []float32, scale, dbeta, dgamma []float64, m float64) int

//go:noescape
func packTransposeVec(dst, src []float32, rows, cols int) int

//go:noescape
func scaleFromVec(dst, x []float32, a float32) int

//go:noescape
func axpyVec(dst, x []float32, a float32) int

//go:noescape
func isFiniteVec(x []float32) int

//go:noescape
func sgdPlainVec(w, g []float32, lr float32) int

//go:noescape
func sgdMomentumVec(w, g, v []float32, lr, mom float32) int

//go:noescape
func sgdProxVec(w, g, v, a []float32, lr, mom, mu float32, heavy bool) int

//go:noescape
func deltaMaxAbsVec(delta, x, ref []float32) (n int, maxBits uint32)

//go:noescape
func dequantizeInt8Vec(dst, ref []float32, q []byte, scale float32) int

//go:noescape
func quantizeInt8PairVec(qa, qb *[QuantBlock]byte, da, db *[QuantBlock]float32, inva, invb float64, sa, sb *uint64) int

//go:noescape
func centerDistancesVec(dist []float64, x []float32, ct []float64, dim, kp int) int

//go:noescape
func nearestLanesVec(dst []int32, dist []float64, kp int) int

//go:noescape
func sumRowsByGroupVec(sum []float64, x []float32, group []int32, w, stride int) int
