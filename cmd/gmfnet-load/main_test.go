package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// loadJSON runs gmfnet-load with -json and parses the metrics line.
func loadJSON(t *testing.T, args ...string) metrics {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-json"), &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	var m metrics
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("bad metrics JSON %q: %v", out.String(), err)
	}
	return m
}

// decisions is the decision signature of a run: everything that must be
// identical across repeats and replay paths, with timing stripped.
func decisions(m metrics) [5]int {
	return [5]int{m.Requests, m.Admitted, m.Rejected, m.Released, m.Resident}
}

func TestLoadReplayAccounting(t *testing.T) {
	m := loadJSON(t, "-topo", "clos", "-switches", "8", "-fanout", "2", "-hosts", "4",
		"-requests", "2000", "-hold", "64", "-heavy", "0.2", "-tenants", "2",
		"-tenant-churn", "0.005", "-flash", "1", "-name", "ci-smoke")
	if m.Name != "ci-smoke" || m.Requests != 2000 {
		t.Fatalf("metrics header: %+v", m)
	}
	// run() itself gates admitted+rejected==requests and
	// resident==admitted-released; re-check here so a gate regression
	// cannot hide behind a silently-passing run.
	if m.Admitted+m.Rejected != m.Requests {
		t.Fatalf("decided %d+%d of %d", m.Admitted, m.Rejected, m.Requests)
	}
	if m.Resident != m.Admitted-m.Released {
		t.Fatalf("resident %d != %d-%d", m.Resident, m.Admitted, m.Released)
	}
	if m.Rejected == 0 || m.Released == 0 {
		t.Fatalf("degenerate workload: rejected=%d released=%d", m.Rejected, m.Released)
	}
	if m.Closures < 2 {
		t.Fatalf("closures = %d, sharding never engaged", m.Closures)
	}
	if !(m.P50NS <= m.P99NS && m.P99NS <= m.P999NS && m.P999NS <= m.MaxNS) {
		t.Fatalf("percentiles out of order: %+v", m)
	}
	if m.P50NS <= 0 || m.ThroughputRPS <= 0 {
		t.Fatalf("no latency signal: %+v", m)
	}
	if m.CPU != runtime.GOMAXPROCS(0) {
		t.Fatalf("cpu key = %d, want GOMAXPROCS %d", m.CPU, runtime.GOMAXPROCS(0))
	}
}

// TestLoadProfiles smokes the pprof hooks: all four profile files must
// be created and non-empty after a short replay.
func TestLoadProfiles(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "cpu.prof"),
		filepath.Join(dir, "mem.prof"),
		filepath.Join(dir, "mutex.prof"),
		filepath.Join(dir, "block.prof"),
	}
	var out bytes.Buffer
	err := run([]string{"-topo", "campus", "-switches", "2", "-hosts", "2",
		"-requests", "200", "-json",
		"-cpuprofile", paths[0], "-memprofile", paths[1],
		"-mutexprofile", paths[2], "-blockprofile", paths[3]}, &out)
	if err != nil {
		t.Fatalf("profiled replay failed: %v", err)
	}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestLoadDeterministicDecisions pins that the decision outcome of a
// seeded run is reproducible: only timing may differ between repeats.
func TestLoadDeterministicDecisions(t *testing.T) {
	args := []string{"-topo", "backbone", "-switches", "3", "-fanout", "3", "-hosts", "2",
		"-requests", "1500", "-hold", "48", "-heavy", "0.15", "-seed", "7"}
	a := loadJSON(t, args...)
	b := loadJSON(t, args...)
	if decisions(a) != decisions(b) {
		t.Fatalf("repeat diverged: %v vs %v", decisions(a), decisions(b))
	}
	c := loadJSON(t, append(args[:len(args)-1], "8")...)
	if decisions(a) == decisions(c) {
		t.Fatal("different seed, identical decisions — seed ignored?")
	}
}

// TestLoadRecordReplay round-trips -record: replaying the recorded
// trace (with different batching) reproduces the synthesized run's
// decisions exactly.
func TestLoadRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "load.trace")
	live := loadJSON(t, "-topo", "fronthaul", "-switches", "2", "-fanout", "3", "-hosts", "2",
		"-requests", "1200", "-hold", "40", "-heavy", "0.15", "-record", trace)
	replayed := loadJSON(t, "-trace", trace, "-batch", "7")
	if decisions(live) != decisions(replayed) {
		t.Fatalf("replay diverged: live %v, trace %v", decisions(live), decisions(replayed))
	}
}

func TestLoadFlushKeepsShardsFine(t *testing.T) {
	// With maintenance flushes a mostly-local workload must end with
	// hundreds of closures, not a handful of fused ones.
	m := loadJSON(t, "-topo", "clos", "-switches", "32", "-fanout", "2", "-hosts", "2",
		"-requests", "3000", "-hold", "512", "-local", "1", "-heavy", "0.05")
	if m.Closures < 32 {
		t.Fatalf("only %d closures on a 64-group all-local run", m.Closures)
	}
}

func TestLoadErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "torus", "-requests", "10"},
		{"-requests", "0"},
		{"-requests", "10", "-heavy", "2"},
		{"-requests", "10", "-batch", "0"},
		{"-trace", "/nonexistent.trace"},
		{"-requests", "10", "-tenants", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
