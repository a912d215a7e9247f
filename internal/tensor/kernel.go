package tensor

import (
	"fmt"
	"strings"
)

// Kernel dispatch: the row kernels come in tiers (portable Go, SSE, AVX2,
// AVX-512), selected once at package init from runtime CPUID feature
// detection, best tier first. The FEDFTEDS_KERNEL environment variable
// forces a tier for tests, CI matrix legs and debugging; requesting a tier
// the CPU (or build) cannot run fails fast at init rather than silently
// downgrading.
//
// Every tier obeys the accumulation-order contract (see matmul.go): SIMD
// only across independent output lanes j, each output element accumulating
// its K terms from +0 in ascending-p order with one multiply rounding and
// one add rounding per term, then adding the sum to dst once. In particular the AVX2/AVX-512 kernels deliberately do
// NOT use fused multiply-add: a single-rounding VFMADD would produce
// different bits than the portable kernel and break every cross-tier
// bit-identity gate (golden checkpoints, resume, relay-vs-flat). The win of
// the wide tiers comes from lane width and 4-row register blocking, not
// from fusing.
//
// The tiers also dispatch the lane kernels (elem.go): ReLU, the bias and
// residual adds, the bias-gradient column sum, BatchNorm's per-element
// passes and its plane sums (BNPlaneSum, BNPlaneSqDev, BNPlaneParamGrads);
// the SGD step in its plain, heavy-ball and proximal modes; the fold's Scale, ScaleFrom, Axpy and IsFinite; the
// weight pack, PackTranspose; the int8 codec's DeltaMaxAbs,
// QuantizeInt8Pair and DequantizeInt8; fleet k-means' CenterDistances,
// NearestLanes and SumRowsByGroup; Conv2D's staging, PadPlanes,
// UnpadPlanes, Unpack3x3 and ScatterAdd3x3 (stage.go); and the softmax
// passes' exponentials and logarithms, SoftmaxRows, LogSoftmaxRows,
// CrossEntropyGrad and EntropyRows (softmax.go). The avx2 and avx512
// tiers run them in AVX2 assembly (elem_avx2_amd64.s, stage_amd64.s,
// bnplane_amd64.s, softmax_amd64.s) over whole 8-lane chunks, whole 8×8
// blocks for the pack, whole block pairs for QuantizeInt8Pair, whole rows
// for the k-means kernels, all planes and windows for the staging, whole
// 4-channel groups for the plane sums or 4-lane groups for the softmax
// passes, and finish the rest in the portable Go reference; the sse and
// portable tiers run the reference alone. The softmax passes' exp bodies
// also need FMA (expAVX2). The lane
// contract: each lane performs the reference's float operations in the
// reference's order, with the same first operand and one rounding each —
// again no VFMADD, save where the reference itself calls math.FMA, which
// only Exp (explog.go) does: there the body fuses the same operation, one
// rounding as math.FMA rounds on every host; the SGD, fold, codec and
// k-means references write each
// product that feeds an add or a subtraction as
// float32(a*b) or float64(a*b) so no target fuses them either — and float32
// values widen to float64 through VCVTPS2PD and narrow through VCVTPD2PS,
// which under Go's default MXCSR (round to nearest even, no FTZ/DAZ) is what
// Go's conversions do.
// Only a NaN's payload may differ, where both operands of one operation were
// NaN. The pack, the plane copies and the 3×3 unpack compute nothing: their
// contract is the reference's bytes.
// IsFinite's body ORs the bits of x - x, so it answers as the reference does.

// KernelTier identifies one row-kernel implementation tier.
type KernelTier int

const (
	// TierPortable is the pure-Go reference kernel, available everywhere.
	TierPortable KernelTier = iota
	// TierSSE is the 4-lane amd64 baseline assembly kernel.
	TierSSE
	// TierAVX2 is the 8-lane, 4-row-blocked assembly kernel.
	TierAVX2
	// TierAVX512 is the 16-lane, 4-row-blocked assembly kernel.
	TierAVX512
)

// String returns the tier's canonical FEDFTEDS_KERNEL value.
func (t KernelTier) String() string {
	switch t {
	case TierPortable:
		return "portable"
	case TierSSE:
		return "sse"
	case TierAVX2:
		return "avx2"
	case TierAVX512:
		return "avx512"
	}
	return fmt.Sprintf("KernelTier(%d)", int(t))
}

// cpuFeatures is the subset of CPUID feature detection the dispatch chain
// consults. The zero value (nothing available) describes non-amd64 builds.
type cpuFeatures struct {
	sse    bool // amd64 baseline assembly compiled in
	avx2   bool // AVX2 + OS YMM state support
	avx512 bool // AVX-512F + OS ZMM/opmask state support
	fma    bool // FMA3 + OS YMM state support: the exp bodies need it
}

// tiers returns the available tiers, best first. Portable is always last.
func (f cpuFeatures) tiers() []KernelTier {
	out := make([]KernelTier, 0, 4)
	if f.avx512 {
		out = append(out, TierAVX512)
	}
	if f.avx2 {
		out = append(out, TierAVX2)
	}
	if f.sse {
		out = append(out, TierSSE)
	}
	return append(out, TierPortable)
}

// chooseTier resolves the FEDFTEDS_KERNEL override against the detected
// features: empty or "auto" picks the best available tier; naming a tier
// demands exactly it, erroring when the CPU or build cannot run it. It is a
// pure function so tests can drive it with forced feature sets.
func chooseTier(f cpuFeatures, env string) (KernelTier, error) {
	switch strings.ToLower(strings.TrimSpace(env)) {
	case "", "auto":
		return f.tiers()[0], nil
	case "portable", "go":
		return TierPortable, nil
	case "sse":
		if !f.sse {
			return 0, fmt.Errorf("tensor: FEDFTEDS_KERNEL=sse: SSE kernel not available (non-amd64 or noasm build)")
		}
		return TierSSE, nil
	case "avx2":
		if !f.avx2 {
			return 0, fmt.Errorf("tensor: FEDFTEDS_KERNEL=avx2: AVX2 not supported by this CPU/OS or build")
		}
		return TierAVX2, nil
	case "avx512":
		if !f.avx512 {
			return 0, fmt.Errorf("tensor: FEDFTEDS_KERNEL=avx512: AVX-512 not supported by this CPU/OS or build")
		}
		return TierAVX512, nil
	}
	return 0, fmt.Errorf("tensor: FEDFTEDS_KERNEL=%q: want auto, portable, sse, avx2 or avx512", env)
}

// detectedFeatures is filled at init by the architecture file (it stays the
// zero value — portable only — on non-amd64 and noasm builds).
var detectedFeatures cpuFeatures

// activeTier is the tier gemmAcc currently dispatches to.
var activeTier = TierPortable

// elemAVX2 turns on the lane kernels' bodies in elem_avx2_amd64.s.
var elemAVX2 bool

// expAVX2 turns on the bodies that evaluate Exp (softmax_amd64.s): the
// avx2 and avx512 tiers on a CPU with FMA, since Exp's fused steps are
// fused there too.
var expAVX2 bool

// gemmAccImpl accumulates dst[r*dstStride+j] += Σ_p a[r*k+p]·b[p*n+j] for
// r in [0,rows), j in [0,n); b rows are contiguous with stride n (the full
// B when n is the output width, or a packed panel). Rebound by setTier.
var gemmAccImpl = gemmAccGo

// ActiveKernel reports the dispatch tier in use ("avx512", "avx2", "sse" or
// "portable"), for logs and diagnostics.
func ActiveKernel() string { return activeTier.String() }

// AvailableKernels lists the tiers this process can run, best first.
func AvailableKernels() []string {
	ts := detectedFeatures.tiers()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// setTier rebinds the dispatch. Only init and tests call it; callers must
// ensure no matmul is in flight (tests swap tiers between operations, which
// the worker pool's channel synchronization makes safe).
func setTier(t KernelTier) {
	activeTier = t
	gemmAccImpl = gemmAccForTier(t)
	elemAVX2 = t >= TierAVX2
	expAVX2 = elemAVX2 && detectedFeatures.fma
}

// gemmAccGo is the portable tier: every row through the reference kernel.
func gemmAccGo(dst, a, b []float32, rows, n, dstStride, k int) {
	for r := 0; r < rows; r++ {
		gemmRowGo(dst[r*dstStride:r*dstStride+n], a[r*k:r*k+k], b[:k*n], k, n)
	}
}
