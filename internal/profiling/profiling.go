// Package profiling is the shared pprof plumbing of the gmfnet command
// line tools: one Session per run, started from the -cpuprofile,
// -memprofile and -blockprofile flags and stopped on the way out. The
// block profile attributes runtime blocking (channel waits, Wait calls)
// to stacks; only gmfnet-admitd, whose connections hand requests between
// goroutines, offers it.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session holds the profile state of one run. The zero value is inert;
// use Start.
type Session struct {
	cpu        *os.File
	mem, block string
}

// Start opens the requested pprof outputs, starts CPU profiling and
// arms the block sampler; any path may be empty. Block events are
// sampled at rate 1 (every event): profiling runs are explicit
// diagnostics, so fidelity beats overhead.
func Start(cpu, mem, block string) (*Session, error) {
	s := &Session{mem: mem, block: block}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		s.cpu = f
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return s, nil
}

// Stop finishes the CPU profile, writes the heap and block profiles,
// and disarms the block sampler. It returns the first error.
func (s *Session) Stop() error {
	var firstErr error
	keep := func(flag string, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", flag, err)
		}
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		keep("-cpuprofile", s.cpu.Close())
	}
	if s.mem != "" {
		runtime.GC() // settle the heap so the profile reflects live data
		keep("-memprofile", writeLookup("heap", s.mem))
	}
	if s.block != "" {
		keep("-blockprofile", writeLookup("block", s.block))
		runtime.SetBlockProfileRate(0)
	}
	return firstErr
}

// writeLookup dumps the named runtime profile to path in pprof format.
func writeLookup(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("runtime profile %q not found", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = p.WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
