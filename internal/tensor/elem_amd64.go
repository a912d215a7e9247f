//go:build amd64 && !noasm

package tensor

// The lane kernels' vector bodies (elem_avx2_amd64.s). Each returns the
// first lane it left to the portable reference: 0 unless elemAVX2 is set.

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
