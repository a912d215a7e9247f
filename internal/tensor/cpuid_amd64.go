//go:build amd64 && !noasm

package tensor

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended state mask.
func xgetbv0() (eax, edx uint32)

// CPUID feature bits consulted by detectCPU.
const (
	cpuid1ECXFMA     = 1 << 12 // leaf 1 ECX: FMA3 instructions
	cpuid1ECXOSXSAVE = 1 << 27 // leaf 1 ECX: OS uses XSAVE/XRSTOR
	cpuid1ECXAVX     = 1 << 28 // leaf 1 ECX: AVX instructions
	cpuid7EBXAVX2    = 1 << 5  // leaf 7 EBX: AVX2 instructions
	cpuid7EBXAVX512F = 1 << 16 // leaf 7 EBX: AVX-512 Foundation

	xcr0SSEAVX = 0x6  // XCR0 bits 1-2: XMM + YMM state saved by the OS
	xcr0AVX512 = 0xe0 // XCR0 bits 5-7: opmask + upper-ZMM + hi16-ZMM state
)

// featuresFromCPUID derives the dispatch features from raw CPUID leaves.
// Split out from detectCPU as a pure function so the forced-feature unit
// tests can drive every branch without controlling the host CPU.
func featuresFromCPUID(maxLeaf, ecx1, ebx7, xcr0 uint32) cpuFeatures {
	f := cpuFeatures{sse: true} // amd64 baseline: SSE2 is always present
	if maxLeaf < 7 {
		return f
	}
	// AVX needs both the instruction-set bit and the OS actually saving
	// YMM state across context switches (OSXSAVE + XCR0[2:1] == 11).
	if ecx1&cpuid1ECXOSXSAVE == 0 || ecx1&cpuid1ECXAVX == 0 || xcr0&xcr0SSEAVX != xcr0SSEAVX {
		return f
	}
	f.avx2 = ebx7&cpuid7EBXAVX2 != 0
	f.fma = ecx1&cpuid1ECXFMA != 0
	// AVX-512 additionally needs ZMM and opmask state enabled by the OS.
	f.avx512 = ebx7&cpuid7EBXAVX512F != 0 && xcr0&xcr0AVX512 == xcr0AVX512
	return f
}

// detectCPU probes the host CPU for the dispatchable kernel tiers.
func detectCPU() cpuFeatures {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return cpuFeatures{sse: true}
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuid1ECXOSXSAVE != 0 {
		xcr0, _ = xgetbv0()
	}
	return featuresFromCPUID(maxLeaf, ecx1, ebx7, xcr0)
}
