//go:build !amd64 || noasm

package tensor

// Without the assembly kernels every lane runs the portable reference.

func reluVec(_, _ []float32) int                                           { return 0 }
func reluGradVec(_, _, _ []float32) int                                    { return 0 }
func addVec(_, _ []float32) int                                            { return 0 }
func addRowVec(_, _ []float32) int                                         { return 0 }
func sumRowsVec(_, _ []float32) int                                        { return 0 }
func bnColSumVec(_ []float64, _ []float32) int                             { return 0 }
func bnColSqDevVec(_, _ []float64, _ []float32) int                        { return 0 }
func bnPlaneSumVec(_ []float64, _ []float32, _ int) int                    { return 0 }
func bnPlaneSqDevVec(_, _ []float64, _ []float32, _ int) int               { return 0 }
func bnPlaneParamGradsVec(_, _ []float64, _, _ []float32, _ int) int       { return 0 }
func bnNormalizeVec(_, _, _ []float32, _, _ []float64, _, _ []float32) int { return 0 }
func bnNormalizeRunningVec(_, _ []float32, _, _, _, _ []float64) int       { return 0 }
func bnParamGradsVec(_, _ []float64, _, _ []float32) int                   { return 0 }
func bnInputGradVec(_, _, _ []float32, _, _, _ []float64, _ float64) int   { return 0 }

func packTransposeVec(_, _ []float32, _, _ int) int                { return 0 }
func scaleFromVec(_, _ []float32, _ float32) int                   { return 0 }
func axpyVec(_, _ []float32, _ float32) int                        { return 0 }
func isFiniteVec(_ []float32) int                                  { return 0 }
func sgdPlainVec(_, _ []float32, _ float32) int                    { return 0 }
func sgdMomentumVec(_, _, _ []float32, _, _ float32) int           { return 0 }
func sgdProxVec(_, _, _, _ []float32, _, _, _ float32, _ bool) int { return 0 }

func deltaMaxAbsVec(_, _, _ []float32) (int, uint32)            { return 0, 0 }
func dequantizeInt8Vec(_, _ []float32, _ []byte, _ float32) int { return 0 }

func quantizeInt8PairVec(_, _ *[QuantBlock]byte, _, _ *[QuantBlock]float32, _, _ float64, _, _ *uint64) int {
	return 0
}

func centerDistancesVec(_ []float64, _ []float32, _ []float64, _, _ int) int { return 0 }
func nearestLanesVec(_ []int32, _ []float64, _ int) int                      { return 0 }
func sumRowsByGroupVec(_ []float64, _ []float32, _ []int32, _, _ int) int    { return 0 }

func copyPlanesVec(_, _ []float32, _, _, _, _, _, _, _ int) int { return 0 }
func unpack3x3Vec(_, _ []float32, _, _, _, _, _, _ int) int     { return 0 }
func scatterAdd3x3Vec(_, _ []float32, _, _, _, _, _, _ int) int { return 0 }

func softmaxExpVec(_ []float64, _, _ []float32, _ int, _ float64, from int) int   { return from }
func crossEntropyGradVec(_, _ []float32, _ []int, _ int, _ float64, from int) int { return from }
func entropyTermsVec(_ []float64, _ []float32, from int) int                      { return from }
