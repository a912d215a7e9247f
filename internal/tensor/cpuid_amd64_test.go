//go:build amd64 && !noasm

package tensor

import "testing"

// TestFeaturesFromCPUID drives the feature derivation with forced CPUID
// values, covering OS-support gating that cannot be exercised on a real
// host (e.g. AVX2 CPU with an OS that does not save YMM state).
func TestFeaturesFromCPUID(t *testing.T) {
	const (
		ecxAVXOS = cpuid1ECXOSXSAVE | cpuid1ECXAVX | cpuid1ECXFMA
		ecxNoFMA = cpuid1ECXOSXSAVE | cpuid1ECXAVX
		ebxBoth  = cpuid7EBXAVX2 | cpuid7EBXAVX512F
		xcrFull  = xcr0SSEAVX | xcr0AVX512
	)
	cases := []struct {
		name                     string
		maxLeaf, ecx1, ebx7, xcr uint32
		want                     cpuFeatures
	}{
		{"ancient cpu, no leaf 7", 1, ecxAVXOS, ebxBoth, xcrFull,
			cpuFeatures{sse: true}},
		{"no osxsave", 7, cpuid1ECXAVX | cpuid1ECXFMA, ebxBoth, xcrFull,
			cpuFeatures{sse: true}},
		{"no avx bit", 7, cpuid1ECXOSXSAVE | cpuid1ECXFMA, ebxBoth, xcrFull,
			cpuFeatures{sse: true}},
		{"os does not save ymm", 7, ecxAVXOS, ebxBoth, 0x1,
			cpuFeatures{sse: true}},
		{"avx os ok but no avx2 bit", 7, ecxAVXOS, cpuid7EBXAVX512F, xcrFull,
			cpuFeatures{sse: true, avx512: true, fma: true}},
		{"avx2 only", 7, ecxAVXOS, cpuid7EBXAVX2, xcr0SSEAVX,
			cpuFeatures{sse: true, avx2: true, fma: true}},
		{"avx2 without fma", 7, ecxNoFMA, cpuid7EBXAVX2, xcr0SSEAVX,
			cpuFeatures{sse: true, avx2: true}},
		{"avx512 without fma", 7, ecxNoFMA, ebxBoth, xcrFull,
			cpuFeatures{sse: true, avx2: true, avx512: true}},
		{"fma, os does not save ymm", 7, ecxAVXOS, cpuid7EBXAVX2, 0x1,
			cpuFeatures{sse: true}},
		{"avx512 cpu, os saves only ymm", 7, ecxAVXOS, ebxBoth, xcr0SSEAVX,
			cpuFeatures{sse: true, avx2: true, fma: true}},
		{"full avx512", 7, ecxAVXOS, ebxBoth, xcrFull,
			cpuFeatures{sse: true, avx2: true, avx512: true, fma: true}},
	}
	for _, c := range cases {
		if got := featuresFromCPUID(c.maxLeaf, c.ecx1, c.ebx7, c.xcr); got != c.want {
			t.Errorf("%s: featuresFromCPUID = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestDetectCPUMatchesInit checks the probe is stable and consistent with
// what init detected.
func TestDetectCPUMatchesInit(t *testing.T) {
	if got := detectCPU(); got != detectedFeatures {
		t.Fatalf("detectCPU() = %+v, init detected %+v", got, detectedFeatures)
	}
	if !detectedFeatures.sse {
		t.Fatal("amd64 asm build must always have the SSE tier")
	}
}
