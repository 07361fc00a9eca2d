package profiling

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartStopWritesProfiles runs a session with every output set and
// expects three non-empty pprof files once it stops.
func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	block := filepath.Join(dir, "block.prof")
	s, err := Start(cpu, mem, block)
	if err != nil {
		t.Fatal(err)
	}
	// Block once on a channel so the block profile has an event.
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, block} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestStartUnwritableCPU fails Start up front, naming the flag, when
// the CPU profile cannot be created.
func TestStartUnwritableCPU(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	s, err := Start(bad, "", "")
	if err == nil {
		s.Stop()
		t.Fatal("Start with an unwritable cpu path succeeded")
	}
	if !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("error %q does not name -cpuprofile", err)
	}
}

// TestStopUnwritableMem surfaces an unwritable heap profile path at
// Stop, where the profile is written, naming the flag.
func TestStopUnwritableMem(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "mem.prof")
	s, err := Start("", bad, "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	err = s.Stop()
	if err == nil {
		t.Fatal("Stop with an unwritable mem path succeeded")
	}
	if !strings.Contains(err.Error(), "-memprofile") {
		t.Fatalf("error %q does not name -memprofile", err)
	}
}

// TestZeroSessionStops pins that the zero Session is inert.
func TestZeroSessionStops(t *testing.T) {
	var s Session
	if err := s.Stop(); err != nil {
		t.Fatalf("zero Session Stop: %v", err)
	}
}
