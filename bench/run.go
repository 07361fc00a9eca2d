package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"gmfnet/internal/workload"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (bench_test.go checks that they agree).
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"add_lat_mean_us", "us"},
	{"del_lat_mean_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"workload.spec_us", "us"},
	{"workload.codec_us", "us"},
	{"admitd.noop_rtt_us", "us"},
	{"admitd.overhead_us", "us"},
	{"admitd.pipeline_gain", "ratio"},
	{"admitd.cpu_util", "ratio"},
	{"admitd.add_lat_p50_us", "us"},
	{"admitd.add_lat_p95_us", "us"},
	{"admitd.add_lat_p99_us", "us"},
	{"admitd.del_lat_p50_us", "us"},
	{"admitd.lat_drift", "ratio"},
	{"admitd.events_per_op", "count"},
	{"admitd.errors", "count"},
	{"admitd.conn_lost", "count"},
	{"admission.request_us", "us"},
	{"admission.request_p99_us", "us"},
	{"admission.release_us", "us"},
	{"admission.close_ms", "ms"},
	{"admission.allocs_per_op", "count"},
	{"admission.kb_per_op", "KB"},
	{"admission.rejected_share", "ratio"},
	{"admission.closures_end", "count"},
	{"core.sweeps_per_request", "count"},
	{"core.sweeps_max", "count"},
	{"core.rounds_per_request", "count"},
	{"core.cold_analyze_ms", "ms"},
	{"network.mirror_add_us", "us"},
	{"network.mirror_del_us", "us"},
	{"network.residents_end", "count"},
	{"network.largest_closure", "count"},
	{"trace.span_ns", "ns"},
}

// exactLayerMetrics are the per-layer metrics that are counts of a
// deterministic replay: they must repeat exactly for one (workload,
// seed), across repetitions, runs and hosts. admission.closures_end is
// not among them: the scheduler undoes fusions and re-splits shards
// lazily, so the shard count at an instant depends on timing.
var exactLayerMetrics = []string{
	"admitd.events_per_op", "admitd.errors", "admitd.conn_lost",
	"admission.rejected_share",
	"core.sweeps_per_request", "core.sweeps_max", "core.rounds_per_request",
	"network.residents_end", "network.largest_closure",
}

// repResult is what one repetition — a fresh daemon driven through
// warm-up, sync phase and capacity phase — measured.
type repResult struct {
	wall     time.Duration // spawn to reaped
	setup    time.Duration // spawn, listen, hello, warm-up
	syncWall time.Duration
	// The capacity phase is measured in phaseSlices slices of equal op
	// count: marks holds the wall clock and the daemon's CPU time at the
	// phaseSlices+1 slice boundaries.
	marks []capMark
	hwmKB int64

	got      []string        // verdict per op
	rtt      []time.Duration // per op; set over the sync range
	noop     []time.Duration // round trips of the no-op probe (traced runs)
	answered int
	connLost int

	// Exact counts, equal across repetitions of one op sequence.
	eventsSync, eventsEnd int64
	stats                 wireStats
}

// capMark is one capacity-phase slice boundary.
type capMark struct {
	at  time.Time
	cpu time.Duration // daemon on-CPU time so far
}

// phaseSlices is the number of slices the sync phase and the capacity
// phase are each cut into (by op index, so slice k covers the same ops
// in every repetition): 100-200 ms each on the seed host, shorter than
// the seconds-long slow spells of its virtual CPUs, so that of one
// slice's repetitions at least one usually ran undisturbed.
const phaseSlices = 16

// capWall and capCPU are the capacity phase's totals.
func (rep *repResult) capWall() time.Duration {
	return rep.marks[len(rep.marks)-1].at.Sub(rep.marks[0].at)
}

func (rep *repResult) capCPU() time.Duration {
	return rep.marks[len(rep.marks)-1].cpu - rep.marks[0].cpu
}

// best folds the repetitions of one op sequence into the one the host
// disturbed least, slice by slice: the round trips of each sync-phase
// slice are those of the repetition that got through the slice fastest,
// each capacity-phase slice's wall clock and CPU time are the smallest
// any repetition measured, and so is the set-up time. All repetitions
// replay the same ops against a fresh daemon, so what differs between
// them is the host — on the seed box a virtual CPU runs ~1.7x slower
// for seconds at a time — and that only ever adds time. A slice is
// hundreds of ops, so what varies from op to op (wake-up latency, which
// of two racing goroutines wins) is averaged inside it, not selected
// away, and costs the ops themselves carry are in every repetition.
// Peak memory is the median: nothing one-sided moves it.
func best(reps []*repResult, wl workloadDef) *repResult {
	out := *reps[len(reps)-1] // verdicts, no-op probes and counts: the last one's
	out.rtt = slices.Clone(out.rtt)
	var hwm []float64
	for _, rep := range reps {
		out.setup = min(out.setup, rep.setup)
		out.syncWall = min(out.syncWall, rep.syncWall)
		hwm = append(hwm, float64(rep.hwmKB))
	}
	out.hwmKB = int64(median(hwm))
	for k := 0; k < phaseSlices; k++ {
		from, to := wl.Warm+k*wl.Sync/phaseSlices, wl.Warm+(k+1)*wl.Sync/phaseSlices
		var fastest time.Duration
		for i, rep := range reps {
			var sum time.Duration
			for _, d := range rep.rtt[from:to] {
				sum += d
			}
			if i == 0 || sum < fastest {
				fastest = sum
				copy(out.rtt[from:to], rep.rtt[from:to])
			}
		}
	}
	// Rebuild the capacity phase's boundaries from the per-slice minima.
	marks := make([]capMark, len(out.marks))
	for k := 1; k < len(marks); k++ {
		wall, cpu := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for _, rep := range reps {
			wall = min(wall, rep.marks[k].at.Sub(rep.marks[k-1].at))
			cpu = min(cpu, rep.marks[k].cpu-rep.marks[k-1].cpu)
		}
		marks[k] = capMark{at: marks[k-1].at.Add(wall), cpu: marks[k-1].cpu + cpu}
	}
	out.marks = marks
	return &out
}

// noopProbes is the number of unsub-of-an-unknown-name round trips a
// traced run's repetition inserts between the sync and capacity phases.
const noopProbes = 2000

// runRep runs one repetition. A connection failure is recorded in the
// result (the ops it left unanswered count as failed); the error return
// is for failures of the harness itself.
func runRep(ctx context.Context, bin, dir string, wl workloadDef, lines [][]byte, probe bool) (rep *repResult, err error) {
	began := time.Now()
	d, err := startDaemon(ctx, bin, dir, wl.Topo)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("gmfnet-admitd exit: %w", serr)
		}
		if rep != nil {
			rep.wall = time.Since(began)
		}
	}()
	c, err := dialDaemon(d.sock, wl.Topo)
	if err != nil {
		return nil, err
	}
	defer c.nc.Close()

	n := len(lines)
	rep = &repResult{got: make([]string, n), rtt: make([]time.Duration, n)}
	phase := func(from, to, win int, rtt []time.Duration, each func(int)) (time.Duration, bool) {
		start := time.Now()
		done, derr := c.drive(lines, from, to, win, rep.got, rtt, each)
		rep.answered += done
		if derr != nil {
			logf("%s: %v", wl.Name, derr)
			rep.connLost++
			return 0, false
		}
		return time.Since(start), true
	}
	syncEnd := wl.Warm + wl.Sync
	var ok bool
	if _, ok = phase(0, wl.Warm, window, nil, nil); !ok {
		return rep, nil
	}
	rep.setup = time.Since(began)
	if rep.syncWall, ok = phase(wl.Warm, syncEnd, 1, rep.rtt, nil); !ok {
		return rep, nil
	}
	rep.eventsSync = c.events
	nextID := int64(n)
	if probe {
		rep.noop = make([]time.Duration, noopProbes)
		for k := range rep.noop {
			nextID++
			start := time.Now()
			if _, err := c.roundTrip(wireOp{Op: "unsub", Name: "bench.noop", ID: nextID}); err != nil {
				logf("%s: no-op probe: %v", wl.Name, err)
				rep.connLost++
				return rep, nil
			}
			rep.noop[k] = time.Since(start)
		}
	}
	var uerr error
	mark := func() {
		u, err := d.usage()
		if err != nil {
			uerr = err
		}
		rep.marks = append(rep.marks, capMark{at: time.Now(), cpu: u.cpu})
		rep.hwmKB = u.hwmKB
	}
	mark()
	if _, ok = phase(syncEnd, n, window, nil, func(i int) {
		// Slice k ends with op syncEnd + k*Cap/phaseSlices - 1.
		if done := i + 1 - syncEnd; done*phaseSlices/wl.Cap > (done-1)*phaseSlices/wl.Cap {
			mark()
		}
	}); !ok {
		return rep, nil
	}
	if uerr != nil {
		return nil, uerr
	}
	rep.eventsEnd = c.events
	m, rerr := c.roundTrip(wireOp{Op: "stats", ID: nextID + 1})
	if rerr != nil || m.Stats == nil {
		logf("%s: stats: %v (%s)", wl.Name, rerr, m.Err)
		rep.connLost++
		return rep, nil
	}
	rep.stats = *m.Stats
	return rep, nil
}

// metricValue is one metric as printed on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is an end-to-end metric of a run: the value reported (read
// off the best-of-repetitions fold) and each repetition's own reading.
type summary struct {
	Value float64   `json:"value"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps"`
}

// report is everything one run of one workload produced. The result
// line the contract asks for is derived from it; -out appends the whole
// object to a file for -compare.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Host        hostInfo               `json:"host"`
	Transport   string                 `json:"transport"`
	Repetitions int                    `json:"repetitions"`
	Samples     map[string]int         `json:"samples"` // per repetition
	Ops         map[string]int         `json:"ops"`     // warm, sync, cap
	WallS       float64                `json:"wall_s"`
	PrepassS    float64                `json:"prepass_s"` // in-process replay and referees
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Breaches    []string               `json:"breaches,omitempty"`
	EndToEnd    map[string]summary     `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) resultLine() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue)}
	if r.Traced {
		for k, v := range r.PerLayer {
			out.Metrics[k] = v
		}
	} else {
		for k, s := range r.EndToEnd {
			out.Metrics[k] = metricValue{Value: s.Value, Unit: s.Unit}
		}
	}
	return out
}

// runWorkload benchmarks one workload for one seed: the in-process
// reference replay (traced if asked), the cold referee, then
// repetitions against fresh daemons for as long as another one fits
// into `seconds`. An untraced run makes at least three repetitions and
// reports every end-to-end metric off their best-of-repetitions fold; a
// traced run charges its in-process passes to the same budget.
func runWorkload(ctx context.Context, bin, dir string, wl workloadDef, seed int64, seconds float64, traced bool, spansPath string) (*report, error) {
	began := time.Now()
	ops, err := wl.ops(seed)
	if err != nil {
		return nil, err
	}
	lines, err := encodeOps(ops)
	if err != nil {
		return nil, err
	}
	r := &report{
		Workload: wl.Name, Seed: seed, Traced: traced, Host: host(), Transport: "unix",
		Ops:      map[string]int{"warm": wl.Warm, "sync": wl.Sync, "cap": wl.Cap},
		EndToEnd: make(map[string]summary),
	}
	breach := func(failed int, format string, args ...any) {
		r.Failed += failed
		r.Breaches = append(r.Breaches, fmt.Sprintf(format, args...))
	}

	var tr *tracer
	if traced {
		tr = newTracer(4 * len(ops))
	}
	passStart := time.Now()
	ref, err := replayInProcess(wl, ops, tr)
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	var cv convergence
	if traced {
		if cv, err = convergencePass(wl, ops, ref.specs); err != nil {
			return nil, fmt.Errorf("convergence pass: %w", err)
		}
	}
	prefix := min(coldPrefix, len(ops))
	bad, err := coldMismatches(wl, ops[:prefix], ref.want)
	if err != nil {
		return nil, fmt.Errorf("cold referee: %w", err)
	}
	if bad > 0 {
		breach(bad, "%d of the first %d verdicts differ from the cold controller's", bad, prefix)
	}
	if ref.admitted+ref.rejected != ref.adds || ref.resident != ref.admitted-ref.released {
		breach(1, "in-process accounting: admitted %d + rejected %d vs %d adds, resident %d vs admitted-released %d",
			ref.admitted, ref.rejected, ref.adds, ref.resident, ref.admitted-ref.released)
	}

	minReps := 3
	if traced {
		minReps = 1
	}
	budget := time.Duration(seconds * float64(time.Second))
	measured := time.Since(passStart)
	r.PrepassS = measured.Seconds()
	var reps []*repResult
	for len(reps) < minReps || measured+reps[len(reps)-1].wall*4/5 < budget {
		rep, err := runRep(ctx, bin, dir, wl, lines, traced)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		measured += rep.wall
		r.Attempted += len(ops)
		failed, msgs := refereeRep(rep, ref)
		r.Failed += failed
		for _, m := range msgs {
			breach(0, "repetition %d: %s", len(reps), m)
		}
		if rep.connLost > 0 {
			break // the remaining metrics of this repetition are void
		}
	}
	for i, rep := range reps[1:] {
		if rep.eventsSync != reps[0].eventsSync || rep.eventsEnd != reps[0].eventsEnd || rep.stats != reps[0].stats {
			breach(1, "repetition %d: exact counts differ from repetition 1's (events %d/%d vs %d/%d, stats %+v vs %+v)",
				i+2, rep.eventsSync, rep.eventsEnd, reps[0].eventsSync, reps[0].eventsEnd, rep.stats, reps[0].stats)
		}
	}
	r.Repetitions = len(reps)

	kinds := opKinds(ops, wl.Warm, wl.Warm+wl.Sync)
	r.Samples = map[string]int{
		"sync_add": len(kinds["add"]), "sync_del": len(kinds["del"]),
		"sync_sub": len(kinds["sub"]) + len(kinds["unsub"]),
	}
	complete := completeReps(reps)
	if len(complete) > 0 {
		endToEnd(r, complete, wl, kinds)
	}
	if traced {
		if len(complete) > 0 {
			perLayer(r, best(complete, wl), ref, cv, tr, wl, ops, kinds)
		}
		if spansPath != "" {
			if err := tr.write(spansPath); err != nil {
				return nil, err
			}
		}
	}
	r.Correct = r.Failed == 0
	r.WallS = time.Since(began).Seconds()
	return r, nil
}

// completeReps returns the repetitions that ran all three phases.
func completeReps(reps []*repResult) []*repResult {
	var out []*repResult
	for _, rep := range reps {
		if rep.connLost == 0 {
			out = append(out, rep)
		}
	}
	return out
}

// opKinds indexes ops[from:to] by op kind.
func opKinds(ops []workload.Op, from, to int) map[string][]int {
	kinds := make(map[string][]int)
	for i := from; i < to; i++ {
		kinds[ops[i].Op] = append(kinds[ops[i].Op], i)
	}
	return kinds
}

// refereeRep checks one repetition against the in-process reference:
// every op answered, no error replies, every verdict equal, and the
// daemon's own accounting consistent with itself and with the
// in-process controller's. It returns the number of failures and what
// they were.
func refereeRep(rep *repResult, ref *reference) (failed int, msgs []string) {
	add := func(n int, format string, args ...any) {
		failed += n
		msgs = append(msgs, fmt.Sprintf(format, args...))
	}
	lost := len(ref.want) - rep.answered
	if lost > 0 {
		add(lost, "%d ops unanswered (connection lost or read deadline)", lost)
	}
	if wrong := verdictMismatches(rep.got[:rep.answered], ref.want[:rep.answered]); wrong > 0 {
		add(wrong, "%d verdicts are errors or differ from the in-process replay", wrong)
	}
	if rep.connLost > 0 {
		if lost == 0 {
			add(1, "connection lost outside the trace ops (no-op probe or stats)")
		}
		return failed, msgs
	}
	st := rep.stats
	if st.Admitted+st.Rejected != ref.adds || st.Resident != st.Admitted-st.Released {
		add(1, "daemon accounting: admitted %d + rejected %d vs %d adds, resident %d vs admitted-released %d",
			st.Admitted, st.Rejected, ref.adds, st.Resident, st.Admitted-st.Released)
	}
	if st.Admitted != ref.admitted || st.Rejected != ref.rejected || st.Released != ref.released {
		add(1, "daemon counters %d/%d/%d differ from in-process %d/%d/%d (admitted/rejected/released)",
			st.Admitted, st.Rejected, st.Released, ref.admitted, ref.rejected, ref.released)
	}
	if st.Dropped != 0 {
		add(1, "daemon dropped %d connections", st.Dropped)
	}
	if st.Events != rep.eventsEnd {
		add(1, "daemon sent %d events, %d arrived", st.Events, rep.eventsEnd)
	}
	if ref.mirrored && rep.eventsSync != ref.eventsSync {
		add(1, "%d events by the end of the sync phase, the mirror replay owes %d", rep.eventsSync, ref.eventsSync)
	}
	return failed, msgs
}

// verdictMismatches counts the verdicts that are error replies or
// differ from the reference.
func verdictMismatches(got, want []string) int {
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd fills in the end-to-end metrics. The reported value is read
// off the best-of-repetitions fold (see best); each repetition's own
// reading is kept beside it, to show how far the host moved them.
func endToEnd(r *report, reps []*repResult, wl workloadDef, kinds map[string][]int) {
	read := func(rep *repResult) map[string]float64 {
		add := sortedRTT(rep.rtt, kinds["add"])
		del := sortedRTT(rep.rtt, kinds["del"])
		return map[string]float64{
			"ops_per_s":       float64(wl.Cap) / rep.capWall().Seconds(),
			"add_lat_mean_us": micros(meanDur(add)),
			"del_lat_mean_us": micros(meanDur(del)),
			"cpu_us_per_op":   micros(rep.capCPU()) / float64(wl.Cap),
			"peak_rss_mb":     float64(rep.hwmKB) / 1024,
			"setup_s":         rep.setup.Seconds(),
		}
	}
	value := read(best(reps, wl))
	per := make(map[string][]float64)
	for _, rep := range reps {
		for k, v := range read(rep) {
			per[k] = append(per[k], v)
		}
	}
	for _, m := range endToEndMetrics {
		v := per[m.Name]
		r.EndToEnd[m.Name] = summary{Value: value[m.Name], Min: slices.Min(v), Max: slices.Max(v), Unit: m.Unit, Reps: v}
	}
}

// sortedRTT returns the round trips of the given ops, ascending.
func sortedRTT(rtt []time.Duration, idx []int) []time.Duration {
	out := make([]time.Duration, len(idx))
	for k, i := range idx {
		out[k] = rtt[i]
	}
	slices.Sort(out)
	return out
}

// quantile reads the q-quantile off an ascending sample (nearest rank);
// an empty sample reads 0.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of a sample, in any order; 0 for an empty one.
func median(values []float64) float64 {
	sorted := slices.Sorted(slices.Values(values))
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// perLayer fills in the per-layer metrics of a traced run from the span
// set, the convergence pass and the run's last complete repetition.
func perLayer(r *report, rep *repResult, ref *reference, cv convergence, tr *tracer, wl workloadDef, ops []workload.Op, kinds map[string][]int) {
	syncEnd := wl.Warm + wl.Sync
	// Span durations of the sync range, by name; mirror spans split by
	// the op that caused them.
	dur := make(map[string][]time.Duration)
	inProc := make(map[int]time.Duration) // op -> spec + request/release
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Op < wl.Warm || s.Op >= syncEnd || s.Name == "op" {
			continue
		}
		name := s.Name
		d := time.Duration(s.End - s.Start)
		if name == "network.mirror" {
			name += "." + ops[s.Op].Op
		} else {
			inProc[s.Op] += d
		}
		dur[name] = append(dur[name], d)
	}
	req := slices.Sorted(slices.Values(dur["admission.request"]))

	// admitd.overhead_us: what the socket-to-verdict path adds to the
	// in-process calls, on the same add and del ops.
	var wire, inproc time.Duration
	served := append(append([]int(nil), kinds["add"]...), kinds["del"]...)
	for _, i := range served {
		wire += rep.rtt[i]
		inproc += inProc[i]
	}
	var overhead float64
	if len(served) > 0 {
		overhead = micros(wire-inproc) / float64(len(served))
	}
	add := kinds["add"]
	addRTT, delRTT := sortedRTT(rep.rtt, add), sortedRTT(rep.rtt, kinds["del"])
	q := len(add) / 4
	var drift float64
	if first := quantile(sortedRTT(rep.rtt, add[:q]), 0.5); first > 0 {
		drift = float64(quantile(sortedRTT(rep.rtt, add[len(add)-q:]), 0.5)) / float64(first)
	}
	gain := float64(wl.Cap) / rep.capWall().Seconds() / (float64(wl.Sync) / rep.syncWall.Seconds())
	util := rep.capCPU().Seconds() / rep.capWall().Seconds()
	noop := slices.Sorted(slices.Values(rep.noop))
	errs := 0
	for _, v := range rep.got {
		if v == "error" {
			errs++
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	values := map[string]float64{
		"workload.spec_us":         micros(meanDur(dur["workload.spec"])),
		"workload.codec_us":        micros(codecCost(ops, add)),
		"admitd.noop_rtt_us":       micros(quantile(noop, 0.5)),
		"admitd.overhead_us":       overhead,
		"admitd.pipeline_gain":     gain,
		"admitd.cpu_util":          util,
		"admitd.add_lat_p50_us":    micros(quantile(addRTT, 0.50)),
		"admitd.add_lat_p95_us":    micros(quantile(addRTT, 0.95)),
		"admitd.add_lat_p99_us":    micros(quantile(addRTT, 0.99)),
		"admitd.del_lat_p50_us":    micros(quantile(delRTT, 0.50)),
		"admitd.lat_drift":         drift,
		"admitd.events_per_op":     float64(rep.eventsEnd) / float64(len(ops)),
		"admitd.errors":            float64(errs),
		"admitd.conn_lost":         float64(rep.connLost),
		"admission.request_us":     micros(meanDur(req)),
		"admission.request_p99_us": micros(quantile(req, 0.99)),
		"admission.release_us":     micros(meanDur(dur["admission.release"])),
		"admission.close_ms":       ref.closeTime.Seconds() * 1e3,
		"admission.allocs_per_op":  ref.allocsPerOp,
		"admission.kb_per_op":      ref.kbPerOp,
		"admission.rejected_share": ratio(ref.rejected, ref.adds),
		"admission.closures_end":   float64(ref.closuresEnd),
		"core.sweeps_per_request":  ratio(cv.sweeps, cv.requests),
		"core.sweeps_max":          float64(cv.sweepsMax),
		"core.rounds_per_request":  ratio(cv.rounds, cv.requests),
		"core.cold_analyze_ms":     ref.coldAnalyze.Seconds() * 1e3,
		"network.mirror_add_us":    micros(meanDur(dur["network.mirror.add"])),
		"network.mirror_del_us":    micros(meanDur(dur["network.mirror.del"])),
		"network.residents_end":    float64(ref.residentsEnd),
		"network.largest_closure":  float64(ref.largestClosure),
		"trace.span_ns":            float64(spanCost()),
	}
	r.PerLayer = make(map[string]metricValue, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		r.PerLayer[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
}

// codecCost is the mean JSON cost one op pays on the wire: the client
// encoding the op, the daemon decoding it into the trace schema, the
// daemon encoding the verdict and the client decoding it.
func codecCost(ops []workload.Op, adds []int) time.Duration {
	if len(adds) > 2000 {
		adds = adds[:2000]
	}
	if len(adds) == 0 {
		return 0
	}
	start := time.Now()
	for _, i := range adds {
		// Flat structs of strings and integers, and bytes just produced
		// by Marshal: none of these calls can fail.
		line, _ := json.Marshal(toWire(&ops[i], int64(i+1)))
		var decoded workload.Op
		_ = json.Unmarshal(line, &decoded)
		line, _ = json.Marshal(wireMsg{Kind: "verdict", ID: decoded.ID, Flow: decoded.Name, Verdict: "admit"})
		var verdict wireMsg
		_ = json.Unmarshal(line, &verdict)
	}
	return time.Since(start) / time.Duration(len(adds))
}
