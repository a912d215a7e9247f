// Package profile is the -cpuprofile/-memprofile plumbing fedsim and
// fedserver share.
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpu and opens mem for a heap profile;
// either path may be empty. The caller defers the returned stop, which
// writes the steady-state heap profile (a failure is reported on stderr
// under prog's name) and ends the CPU profile.
func Start(prog, cpu, mem string) (stop func(), err error) {
	var cpuOut, memOut *os.File
	stop = func() {
		if memOut != nil {
			runtime.GC() // materialize the steady-state heap
			if err := errors.Join(pprof.WriteHeapProfile(memOut), memOut.Close()); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prog, err)
			}
		}
		if cpuOut != nil {
			pprof.StopCPUProfile()
			cpuOut.Close()
		}
	}
	if cpu != "" {
		if cpuOut, err = os.Create(cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if mem != "" {
		if memOut, err = os.Create(mem); err != nil {
			stop()
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	return stop, nil
}
