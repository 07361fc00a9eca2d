package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
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

// streamTrace is the checked-in campus request trace the golden test
// pins; the smoke tests below replay it through the command line.
var streamTrace = filepath.Join("testdata", "stream.trace")

func TestRunStream(t *testing.T) {
	if err := run([]string{"-trace", streamTrace}); err != nil {
		t.Fatalf("trace replay failed: %v", err)
	}
}

func TestRunStreamCold(t *testing.T) {
	if err := run([]string{"-trace", streamTrace, "-cold"}); err != nil {
		t.Fatalf("cold trace replay failed: %v", err)
	}
}

func TestRunStreamBatch(t *testing.T) {
	if err := run([]string{"-trace", streamTrace, "-batch", "8"}); err != nil {
		t.Fatalf("batched trace replay failed: %v", err)
	}
}

// synthTrace writes a synthesized request trace to a temporary file
// and returns its path and operations.
func synthTrace(t *testing.T, spec workload.TopoSpec, cfg workload.Config) (string, []workload.Op) {
	t.Helper()
	h, ops, err := workload.Synthesize(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, h, ops); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ops
}

// campusTrace synthesizes a campus trace (switches x hosts) whose heavy
// flows force rejections.
func campusTrace(t *testing.T, switches, hosts, requests int) string {
	t.Helper()
	path, _ := synthTrace(t, workload.TopoSpec{Switches: switches, Hosts: hosts},
		workload.Config{Seed: 3, Requests: requests, Hold: 24, Heavy: 0.15})
	return path
}

// replayEqual replays the trace once per option set and asserts every
// decision log equals the first one's.
func replayEqual(t *testing.T, path string, variants ...runOpts) {
	t.Helper()
	var first []byte
	for i, o := range variants {
		var out bytes.Buffer
		if err := runTrace(&out, path, o); err != nil {
			t.Fatalf("replay %+v: %v", o, err)
		}
		if i == 0 {
			first = out.Bytes()
			if !bytes.Contains(first, []byte("reject ")) || !bytes.Contains(first, []byte("release ")) {
				t.Fatalf("degenerate trace: no rejection or no departure:\n%s", first)
			}
			continue
		}
		if !bytes.Equal(out.Bytes(), first) {
			t.Fatalf("replay %+v differs from %+v:\n%s\nvs\n%s", o, variants[0], out.Bytes(), first)
		}
	}
}

// TestRunStreamSharded replays a synthesized campus trace through the
// sharded controller one request at a time and through the cold
// referee: the decision logs must be byte-identical.
func TestRunStreamSharded(t *testing.T) {
	replayEqual(t, campusTrace(t, 4, 3, 40), runOpts{}, runOpts{cold: true})
}

// TestRunStreamShardedBatch replays the same kind of trace in batches
// of 8 and one by one.
func TestRunStreamShardedBatch(t *testing.T) {
	replayEqual(t, campusTrace(t, 4, 3, 40), runOpts{}, runOpts{batch: 8})
}

// TestRunStreamShardedWideBatch replays wide batches over more
// switches, so most batches span several interference groups, decided
// one after another.
func TestRunStreamShardedWideBatch(t *testing.T) {
	replayEqual(t, campusTrace(t, 6, 3, 60), runOpts{}, runOpts{batch: 16})
}

// TestRunProfiles smokes the pprof hooks: both profile files must be
// created and non-empty after a short trace replay.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-trace", streamTrace, "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("profiled replay failed: %v", err)
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

// TestTraceGoldenOutput is the determinism pin for trace mode: the
// recorded request trace in testdata must produce byte-identical
// admit/reject decision logs through the sharded controller one by
// one, batched admission (two batch sizes, one that forces mid-batch
// eviction) and the cold referee — all equal to the checked-in golden
// file. The trace ends in a burst of ~53 Mbit/s video
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
		{name: "sharded"},
		{name: "sharded-batch16", opts: runOpts{batch: 16}},
		{name: "sharded-batch3", opts: runOpts{batch: 3}},
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
// byte-identical checked-in decision log one by one, batched and
// through the cold referee. This is what licenses the load harness's
// counters as "what the referee would have decided" at
// million-request scale.
func TestGeneratorTraceGolden(t *testing.T) {
	variants := []struct {
		name string
		opts runOpts
	}{
		{name: "sharded"},
		{name: "sharded-batch3", opts: runOpts{batch: 3}},
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

// TestTraceRecordReplay round-trips a synthesized trace through the
// trace file format: the written trace must replay without error to
// the same decision log one by one, in batches of 4 and through the
// cold referee, and end with the resident count a direct in-process
// replay of the synthesized operations reports.
func TestTraceRecordReplay(t *testing.T) {
	spec := workload.TopoSpec{Switches: 3, Hosts: 2}
	traceFile, ops := synthTrace(t, spec, workload.Config{Seed: 5, Requests: 30, Hold: 8, Heavy: 0.2})
	var seq, bat, cold bytes.Buffer
	for _, r := range []struct {
		out  *bytes.Buffer
		opts runOpts
	}{{&seq, runOpts{}}, {&bat, runOpts{batch: 4}}, {&cold, runOpts{cold: true}}} {
		if err := runTrace(r.out, traceFile, r.opts); err != nil {
			t.Fatalf("replay %+v failed: %v", r.opts, err)
		}
	}
	if !bytes.Equal(seq.Bytes(), bat.Bytes()) {
		t.Fatalf("sequential and batched replays differ:\n%s\nvs\n%s", seq.Bytes(), bat.Bytes())
	}
	if !bytes.Equal(seq.Bytes(), cold.Bytes()) {
		t.Fatalf("sharded and cold replays differ:\n%s\nvs\n%s", seq.Bytes(), cold.Bytes())
	}
	// Replay the synthesized operations directly, without the file.
	topo, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Op == "del" {
			if _, err := ctl.Release(op.Name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		fs, err := op.Spec(topo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Request(fs); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprintf("resident=%d\n", ctl.NumFlows())
	if !strings.HasSuffix(seq.String(), want) {
		t.Fatalf("replay summary does not end in %q:\n%s", want, seq.String())
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"/nonexistent.json"},
		{"-trace", filepath.Join("testdata", "stream.trace"), "-batch", "4", "-cold"},
		{"-trace", "/nonexistent.trace"},
		{"-example", "-cpuprofile", "/nonexistent-dir/cpu.prof"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
