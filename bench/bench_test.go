package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkResultLine asserts the shape the benchmark contract fixes for
// the last line of standard output.
func checkResultLine(t *testing.T, r *report, want []metricDef) {
	t.Helper()
	line, err := json.Marshal(r.resultLine())
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want correct, attempted, failed, metrics: %s", len(obj), line)
	}
	var res resultLine
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d; breaches: %v", res.Correct, res.Attempted, res.Failed, r.Breaches)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics on the result line, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s (%s) is outside the contract's charset", m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload end to end at a fiftieth of its size:
// an untraced run (three repetitions, so the cross-repetition counters
// are compared) and two traced runs whose exact counts must repeat.
func TestSmoke(t *testing.T) {
	t.Chdir("..") // the benchmark runs from the repository root
	ctx := context.Background()
	dir, bin, err := buildDaemon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for _, def := range workloads {
		wl := def.scaled(0.02)
		t.Run(wl.Name, func(t *testing.T) {
			r, err := runWorkload(ctx, bin, dir, wl, 1, 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if r.Repetitions != 3 {
				t.Errorf("untraced run made %d repetitions, want 3", r.Repetitions)
			}
			checkResultLine(t, r, endToEndMetrics)
			for _, m := range endToEndMetrics {
				if r.EndToEnd[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, r.EndToEnd[m.Name].Value)
				}
			}

			spans := filepath.Join(dir, "spans.jsonl")
			a, err := runWorkload(ctx, bin, dir, wl, 1, 0, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkResultLine(t, a, perLayerMetrics)
			b, err := runWorkload(ctx, bin, dir, wl, 1, 0, true, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactLayerMetrics {
				if a.PerLayer[name] != b.PerLayer[name] {
					t.Errorf("exact count %s does not repeat: %v then %v", name, a.PerLayer[name].Value, b.PerLayer[name].Value)
				}
			}
			if wl.SubEvery > 0 && a.PerLayer["admitd.events_per_op"].Value == 0 {
				t.Error("the subscribing workload received no events")
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil || first.Name != "op" || first.Parent != -1 {
				t.Errorf("first span %+v (%v), want a root \"op\" span", first, err)
			}
		})
	}
}

// TestRefereeFlagsFlippedVerdict hands the referee a repetition that
// answered everything consistently, then flips one verdict.
func TestRefereeFlagsFlippedVerdict(t *testing.T) {
	wl, _ := findWorkload("backbone-light")
	wl = wl.scaled(0.02)
	ops, err := wl.ops(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := replayInProcess(wl, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := &repResult{
		got:      append([]string(nil), ref.want...),
		answered: len(ops),
		stats:    wireStats{Admitted: ref.admitted, Rejected: ref.rejected, Released: ref.released, Resident: ref.resident},
	}
	if failed, msgs := refereeRep(rep, ref); failed != 0 {
		t.Fatalf("referee fails a faithful repetition: %v", msgs)
	}
	for i, v := range rep.got {
		if v == "admit" {
			rep.got[i] = "reject"
			break
		}
	}
	if failed, msgs := refereeRep(rep, ref); failed != 1 {
		t.Errorf("referee counted %d failures for one flipped verdict: %v", failed, msgs)
	}
	rep.got = append([]string(nil), ref.want...)
	rep.stats.Resident++
	if failed, _ := refereeRep(rep, ref); failed == 0 {
		t.Error("referee accepts resident != admitted - released")
	}
}

// TestBestOfRepetitions: the fold keeps, per slice, the repetition the
// host disturbed least.
func TestBestOfRepetitions(t *testing.T) {
	wl := workloadDef{Warm: 4, Sync: 2 * phaseSlices, Cap: phaseSlices}
	t0 := time.Unix(0, 0)
	// Repetition a is slow (x3) in the second half of both phases,
	// repetition b in the first half.
	mk := func(slowFirstHalf bool, setup time.Duration, hwmKB int64) *repResult {
		rep := &repResult{setup: setup, hwmKB: hwmKB, rtt: make([]time.Duration, wl.total()), marks: []capMark{{at: t0}}}
		for k := 0; k < phaseSlices; k++ {
			f := time.Duration(1)
			if slowFirstHalf == (k < phaseSlices/2) {
				f = 3
			}
			rep.rtt[wl.Warm+2*k] = f * 100 * time.Microsecond
			rep.rtt[wl.Warm+2*k+1] = f * 300 * time.Microsecond
			last := rep.marks[k]
			rep.marks = append(rep.marks, capMark{at: last.at.Add(f * time.Millisecond), cpu: last.cpu + f*2*time.Millisecond})
		}
		return rep
	}
	a, b := mk(false, 2*time.Second, 1000), mk(true, time.Second, 3000)
	got := best([]*repResult{a, b, mk(true, 3*time.Second, 2000)}, wl)
	if got.capWall() != phaseSlices*time.Millisecond || got.capCPU() != phaseSlices*2*time.Millisecond {
		t.Errorf("capacity phase %v wall, %v CPU; want %v, %v", got.capWall(), got.capCPU(), phaseSlices*time.Millisecond, phaseSlices*2*time.Millisecond)
	}
	for i := wl.Warm; i < wl.Warm+wl.Sync; i++ {
		if want := min(a.rtt[i], b.rtt[i]); got.rtt[i] != want {
			t.Errorf("round trip %d = %v, want %v", i, got.rtt[i], want)
		}
	}
	if got.setup != time.Second || got.hwmKB != 2000 {
		t.Errorf("setup %v, VmHWM %d kB; want the smallest set-up (1s) and the median peak (2000)", got.setup, got.hwmKB)
	}
}

// TestOpsDeterministic: the op sequence is a pure function of the seed.
func TestOpsDeterministic(t *testing.T) {
	for _, def := range workloads {
		wl := def.scaled(0.02)
		a, err := wl.ops(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := wl.ops(7)
		c, _ := wl.ops(8)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		jc, _ := json.Marshal(c)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: same seed, different ops", wl.Name)
		}
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: different seeds, same ops", wl.Name)
		}
		if len(a) != wl.total() {
			t.Errorf("%s: %d ops, want %d", wl.Name, len(a), wl.total())
		}
	}
}

// TestBenchmarkJSONAgrees: BENCHMARK.json names exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range spec.Workloads {
		if i < len(workloads) && wl.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, wl.Name, workloads[i].Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEndMetrics) && (m.Name != endToEndMetrics[i].Name || m.Unit != endToEndMetrics[i].Unit) {
			t.Errorf("end-to-end metric %d is %s (%s) in BENCHMARK.json, %v in the program", i, m.Name, m.Unit, endToEndMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayerMetrics) && (m.Name != perLayerMetrics[i].Name || m.Unit != perLayerMetrics[i].Unit) {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json, %v in the program", i, m.Name, m.Unit, perLayerMetrics[i])
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

// TestCompare: equal sets pass; a median beyond its bound, and a spread
// beyond the bound, do not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, jitter []float64) string {
		path := filepath.Join(dir, name)
		for _, wl := range workloads {
			for seed, j := range jitter {
				r := &report{Workload: wl.Name, Seed: int64(seed), Correct: true, EndToEnd: map[string]summary{}}
				for _, m := range endToEndMetrics {
					v := 100 * j
					if m.Name == "ops_per_s" {
						v /= scale // higher is better: a slower B has fewer ops/s
					} else {
						v *= scale
					}
					r.EndToEnd[m.Name] = summary{Value: v, Unit: m.Unit}
				}
				if err := appendReport(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1.02, 0.98}
	a := write("a.json", 1, steady)
	var out bytes.Buffer
	if err := compareFiles(&out, "../BENCHMARK.json", a, write("same.json", 1.01, steady)); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, "../BENCHMARK.json", a, write("slow.json", 1.5, steady)); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 50%% regression passed (%v):\n%s", err, out.String())
	}
	out.Reset()
	noisy := []float64{1, 1.6, 0.5, 1.5, 0.6}
	if err := compareFiles(&out, "../BENCHMARK.json", a, write("noisy.json", 1, noisy)); err == nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread beyond the bound was not reported unresolved (%v):\n%s", err, out.String())
	}
}
