package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExample(t *testing.T) {
	if err := run([]string{"-example"}); err != nil {
		t.Fatalf("-example failed: %v", err)
	}
}

func TestRunSporadic(t *testing.T) {
	if err := run([]string{"-example", "-sporadic"}); err != nil {
		t.Fatalf("-sporadic failed: %v", err)
	}
}

func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "campus.json")
	if err := run([]string{path}); err != nil {
		t.Fatalf("scenario replay failed: %v", err)
	}
}

func TestRunStream(t *testing.T) {
	if err := run([]string{"-stream", "40", "-seed", "3", "-switches", "4", "-hosts", "3"}); err != nil {
		t.Fatalf("stream mode failed: %v", err)
	}
}

func TestRunStreamCold(t *testing.T) {
	if err := run([]string{"-stream", "10", "-seed", "3", "-switches", "2", "-hosts", "2", "-cold"}); err != nil {
		t.Fatalf("cold stream mode failed: %v", err)
	}
}

func TestRunStreamBatch(t *testing.T) {
	if err := run([]string{"-stream", "40", "-seed", "3", "-switches", "4", "-hosts", "3", "-batch", "8"}); err != nil {
		t.Fatalf("batched stream mode failed: %v", err)
	}
}

func TestRunStreamSharded(t *testing.T) {
	if err := run([]string{"-stream", "40", "-seed", "3", "-switches", "4", "-hosts", "3", "-shards"}); err != nil {
		t.Fatalf("sharded stream mode failed: %v", err)
	}
}

func TestRunStreamShardedBatch(t *testing.T) {
	if err := run([]string{"-stream", "40", "-seed", "3", "-switches", "4", "-hosts", "3", "-shards", "-batch", "8"}); err != nil {
		t.Fatalf("sharded batched stream mode failed: %v", err)
	}
}

// TestRunStreamShardedWideBatch streams wide batches through the sharded
// controller over more switches, so most batches span several
// interference groups, decided one after another.
func TestRunStreamShardedWideBatch(t *testing.T) {
	if err := run([]string{"-stream", "60", "-seed", "3", "-switches", "6", "-hosts", "3", "-shards", "-batch", "16"}); err != nil {
		t.Fatalf("sharded wide-batch stream mode failed: %v", err)
	}
}

// TestRunProfiles smokes the pprof hooks: both profile files must be
// created and non-empty after a short sharded stream.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-stream", "10", "-seed", "3", "-switches", "2", "-hosts", "2",
		"-shards", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("profiled stream failed: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestTraceGoldenOutput is the determinism pin for stream mode: the
// recorded request trace in testdata must produce byte-identical
// admit/reject decision logs through the sequential and sharded
// controllers, batched admission (two batch sizes, one that forces
// mid-batch eviction) and the cold baseline — all equal to the
// checked-in golden file. The trace ends in a burst of ~53 Mbit/s video
// flows that saturate an edge link, so the batched runs exercise the
// eviction path, and a departure between them exercises release.
func TestTraceGoldenOutput(t *testing.T) {
	tracePath := filepath.Join("testdata", "stream.trace")
	golden, err := os.ReadFile(filepath.Join("testdata", "stream.golden"))
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opts runOpts
	}{
		{name: "sequential"},
		{name: "batch16", opts: runOpts{batch: 16}},
		{name: "batch3", opts: runOpts{batch: 3}},
		{name: "sharded", opts: runOpts{shards: true}},
		{name: "sharded-batch16", opts: runOpts{shards: true, batch: 16}},
		{name: "sharded-batch3", opts: runOpts{shards: true, batch: 3}},
		{name: "cold", opts: runOpts{cold: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := runTrace(&out, tracePath, v.opts); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), golden) {
				t.Fatalf("decision log differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
					out.Bytes(), golden)
			}
		})
	}
}

// TestGeneratorTraceGolden extends the determinism pin to the
// production topology generators: a down-scaled synthesized trace per
// generator (recorded by gmfnet-load -record, heavy flows forcing
// rejects and tenant churn forcing releases) must replay to the
// byte-identical checked-in decision log through every controller
// variant. This is what licenses the load harness's counters as "what
// the serial controller would have decided" at million-request scale.
func TestGeneratorTraceGolden(t *testing.T) {
	variants := []struct {
		name string
		opts runOpts
	}{
		{name: "sequential"},
		{name: "batch3", opts: runOpts{batch: 3}},
		{name: "sharded", opts: runOpts{shards: true}},
		{name: "sharded-batch3", opts: runOpts{shards: true, batch: 3}},
		{name: "cold", opts: runOpts{cold: true}},
	}
	for _, gen := range []string{"backbone", "fronthaul", "clos"} {
		gen := gen
		t.Run(gen, func(t *testing.T) {
			tracePath := filepath.Join("testdata", gen+".trace")
			golden, err := os.ReadFile(filepath.Join("testdata", gen+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			// The trace must actually exercise both hard paths.
			if !bytes.Contains(golden, []byte("reject ")) {
				t.Fatalf("%s golden has no rejections", gen)
			}
			if !bytes.Contains(golden, []byte("release ")) {
				t.Fatalf("%s golden has no departures", gen)
			}
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					var out bytes.Buffer
					if err := runTrace(&out, tracePath, v.opts); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), golden) {
						t.Fatalf("decision log differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
							out.Bytes(), golden)
					}
				})
			}
		})
	}
}

// TestTraceStatsLine checks the -stats reporting: the replay's decision
// log is unchanged (the stats line is appended after the pinned
// summary), and the sweep/round counters are live.
func TestTraceStatsLine(t *testing.T) {
	tracePath := filepath.Join("testdata", "stream.trace")
	var plain, stats bytes.Buffer
	if err := runTrace(&plain, tracePath, runOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(&stats, tracePath, runOpts{stats: true}); err != nil {
		t.Fatal(err)
	}
	out := stats.String()
	if !strings.HasPrefix(out, plain.String()[:len(plain.String())-1]) {
		// Everything up to the trailing newline must match the plain run.
		t.Fatalf("-stats altered the decision log:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "stats sweeps=") {
		t.Fatalf("missing stats trailer, got %q", last)
	}
	var sweeps, rounds int
	if _, err := fmt.Sscanf(last, "stats sweeps=%d rounds=%d", &sweeps, &rounds); err != nil {
		t.Fatalf("unparseable stats trailer %q: %v", last, err)
	}
	if sweeps <= 0 || rounds != sweeps {
		t.Fatalf("implausible convergence counters: %s", last)
	}
}

// TestTraceRecordReplay round-trips stream mode through -record: the
// recorded trace must replay without error and end with the same
// resident count the live stream reported.
func TestTraceRecordReplay(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "rec.trace")
	if err := run([]string{"-stream", "30", "-seed", "5", "-switches", "3", "-hosts", "2",
		"-batch", "4", "-record", traceFile}); err != nil {
		t.Fatalf("recording stream failed: %v", err)
	}
	var seq, bat, shd bytes.Buffer
	if err := runTrace(&seq, traceFile, runOpts{}); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if err := runTrace(&bat, traceFile, runOpts{batch: 4}); err != nil {
		t.Fatalf("batched replay failed: %v", err)
	}
	if err := runTrace(&shd, traceFile, runOpts{shards: true, batch: 4}); err != nil {
		t.Fatalf("sharded replay failed: %v", err)
	}
	if !bytes.Equal(seq.Bytes(), bat.Bytes()) {
		t.Fatalf("sequential and batched replays differ:\n%s\nvs\n%s", seq.Bytes(), bat.Bytes())
	}
	if !bytes.Equal(seq.Bytes(), shd.Bytes()) {
		t.Fatalf("sequential and sharded replays differ:\n%s\nvs\n%s", seq.Bytes(), shd.Bytes())
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"/nonexistent.json"},
		{"-stream", "5", "-switches", "0"},
		{"-stream", "5", "-hosts", "1"},
		{"-stream", "5", "-batch", "4", "-cold"},
		{"-stream", "5", "-shards", "-cold"},
		{"-trace", "/nonexistent.trace"},
		{"-example", "-cpuprofile", "/nonexistent-dir/cpu.prof"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
