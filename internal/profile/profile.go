// Package profile writes the command-line tools' -cpuprofile and
// -memprofile files with runtime/pprof, for `go tool pprof`.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, if it is not empty.
// The returned stop ends it and then, if memPath is not empty, writes a
// heap profile there (allocations since the program started, and the
// memory still in use after a garbage collection). Call stop once, when
// the work to profile is done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		runtime.GC() // the in-use figures reflect the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		return nil
	}, nil
}
