package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the user+sys CPU time of every thread of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocMeter brackets the measured rounds with the Go heap's allocation
// counters. ReadMemStats stops the world, so it is read once at each end and
// never inside the interval.
type allocMeter struct{ ms runtime.MemStats }

func (m *allocMeter) start() { runtime.ReadMemStats(&m.ms) }

// stop returns the objects and bytes allocated since start.
func (m *allocMeter) stop() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - m.ms.Mallocs, ms.TotalAlloc - m.ms.TotalAlloc
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of this
// process (clear_refs value 5), so that each block reads its own peak. Where
// the kernel refuses, the mark keeps rising and peakRSSMiB degrades to the
// process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// calibMs times a fixed scalar+memcpy loop that calls no repository code. It
// exists so numbers recorded on different boxes can be read side by side; it
// is never used to rescale a metric or a bound.
func calibMs() float64 {
	const n = 1 << 20
	a, b := make([]float32, n), make([]float32, n)
	for i := range a {
		a[i] = float32(i&1023) * 0.001
	}
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		var acc float32
		for pass := 0; pass < 8; pass++ {
			copy(b, a)
			for i := range b {
				acc += b[i] * 1.0001
			}
		}
		calibSink = acc
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}

var calibSink float32

// median returns the middle of xs (mean of the two middles for even counts)
// and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with the percentile itself; with too few samples it
// falls back to the median.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n < 22 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-11) / float64(n)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
