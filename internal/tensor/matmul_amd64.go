//go:build amd64 && !noasm

package tensor

import "os"

// The amd64 tier implementations. All of them honour the accumulation-order
// contract: lanes are independent output elements j, each accumulating its
// K terms from +0 in ascending-p order with exactly one multiply rounding and
// one add rounding per term, then added to dst once — the same float32
// operation sequence as the portable kernel, so all tiers produce identical
// bits.

func init() {
	detectedFeatures = detectCPU()
	t, err := chooseTier(detectedFeatures, os.Getenv("FEDFTEDS_KERNEL"))
	if err != nil {
		// Fail fast: a forced tier the CPU cannot run must not silently
		// downgrade — CI matrix legs and reproducibility checks depend on
		// getting exactly the tier they asked for.
		panic(err)
	}
	setTier(t)
}

// gemmAccForTier maps a tier to its row-block accumulator.
func gemmAccForTier(t KernelTier) func(dst, a, b []float32, rows, n, dstStride, k int) {
	switch t {
	case TierAVX512:
		return gemmAccAVX512
	case TierAVX2:
		return gemmAccAVX2
	case TierSSE:
		return gemmAccSSE
	}
	return gemmAccGo
}

// gemmAccSSE runs every row through the 4-lane SSE row kernel.
func gemmAccSSE(dst, a, b []float32, rows, n, dstStride, k int) {
	for r := 0; r < rows; r++ {
		gemmRowSSE(&dst[r*dstStride], &a[r*k], &b[0], k, n)
	}
}

// gemmAccAVX2 processes 4 output rows at a time (8 YMM accumulators, so the
// multiply/add ports stay saturated even for narrow n) and finishes
// leftover rows with the SSE row kernel — bit-identical either way.
func gemmAccAVX2(dst, a, b []float32, rows, n, dstStride, k int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		gemmRow4AVX2(&dst[r*dstStride], dstStride, &a[r*k], k, &b[0], k, n)
	}
	for ; r < rows; r++ {
		gemmRowSSE(&dst[r*dstStride], &a[r*k], &b[0], k, n)
	}
}

// gemmAccAVX512 is gemmAccAVX2 with 16-lane ZMM chunks.
func gemmAccAVX512(dst, a, b []float32, rows, n, dstStride, k int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		gemmRow4AVX512(&dst[r*dstStride], dstStride, &a[r*k], k, &b[0], k, n)
	}
	for ; r < rows; r++ {
		gemmRowSSE(&dst[r*dstStride], &a[r*k], &b[0], k, n)
	}
}

// gemmRowSSE accumulates one output row: dst[j] += Σ_p a[p]·b[p*n+j].
// Implemented in matmul_amd64.s. Callers guarantee k >= 1, n >= 1.
//
//go:noescape
func gemmRowSSE(dst, a, b *float32, k, n int)

// gemmRow4AVX2 accumulates four output rows r in [0,4):
// dst[r*dstStride+j] += Σ_p a[r*aStride+p]·b[p*n+j]. Implemented in
// matmul_avx2_amd64.s. Callers guarantee k >= 1, n >= 1.
//
//go:noescape
func gemmRow4AVX2(dst *float32, dstStride int, a *float32, aStride int, b *float32, k, n int)

// gemmRow4AVX512 is gemmRow4AVX2 with 512-bit vectors (matmul_avx512_amd64.s).
//
//go:noescape
func gemmRow4AVX512(dst *float32, dstStride int, a *float32, aStride int, b *float32, k, n int)
