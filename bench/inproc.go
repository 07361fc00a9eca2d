package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gmfnet"
	"gmfnet/internal/admission"
	"gmfnet/internal/workload"
)

// span is one traced call into a layer's public function. Spans of one
// op share Op (the op's index in the sequence); Parent is the index of
// the enclosing span in the span file, -1 for a root. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory; they are written out when the
// benchmark ends. A nil tracer records nothing, so the untraced
// reference replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost calibrates the cost of recording one span.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1, i))
	}
	return time.Since(start) / n
}

// reference is the in-process replay of a workload's ops: the verdicts
// the daemon must reproduce, the controller's accounting, and — from a
// traced replay — the per-layer measurements.
type reference struct {
	want []string // expected verdict per op

	adds, admitted, rejected, released, resident int // after the last op

	// The rest is filled in by a traced replay only (mirrored is set).
	mirrored       bool
	closeTime      time.Duration
	allocsPerOp    float64 // mallocs per sampled admission call
	kbPerOp        float64
	closuresEnd    int   // controller shards after the sync range
	residentsEnd   int   // mirror population after the sync range
	largestClosure int   // its largest closure
	eventsSync     int64 // events a subscriber is owed up to the end of the sync range
	coldAnalyze    time.Duration
	specs          []*gmfnet.FlowSpec // per add op, for the convergence pass
}

// allocSampleEvery is the stride of the admission calls whose
// allocations are measured: runtime.ReadMemStats stops the world, so
// it brackets one call in 32, outside the call's span.
const allocSampleEvery = 32

// replayInProcess runs the ops through a ParallelController configured
// as the daemon configures its own (counters-only retention, a fold
// hook) and records the verdicts. With a tracer it also times every
// call into a layer — Op.Spec, Request/Release, and, up to the end of
// the sync range, the mirroring of each fold into a standalone network
// the way admitd's fanout does it — as one span set per op.
func replayInProcess(wl workloadDef, ops []workload.Op, tr *tracer) (*reference, error) {
	topo, _, err := wl.Topo.Build()
	if err != nil {
		return nil, err
	}
	ctl, err := gmfnet.NewSystem(topo).NewParallelAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			ctl.Close()
		}
	}()
	ctl.SetRetention(admission.RetainCounters)
	// The hook runs under the controller's lock; Request and Release
	// return through that lock, which orders the append before the
	// reads below.
	var folds []admission.FoldEvent
	ctl.SetNotify(func(ev admission.FoldEvent) { folds = append(folds, ev) })

	ref := &reference{want: make([]string, len(ops))}
	syncEnd := wl.Warm + wl.Sync
	var mirrorSys *gmfnet.System
	subs := make(map[string]bool)
	if tr != nil {
		mirrorSys = gmfnet.NewSystem(topo)
		ref.mirrored = true
		ref.specs = make([]*gmfnet.FlowSpec, len(ops))
	}
	var allocSamples, mallocs, bytes uint64
	var before, after runtime.MemStats

	for i := range ops {
		op := &ops[i]
		sample := tr != nil && i >= wl.Warm && i < syncEnd && i%allocSampleEvery == 0
		root := tr.begin("op", -1, i)
		switch op.Op {
		case "add":
			s := tr.begin("workload.spec", root, i)
			spec, err := op.Spec(topo)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			if sample {
				runtime.ReadMemStats(&before)
			}
			s = tr.begin("admission.request", root, i)
			d, err := ctl.Request(spec)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			ref.adds++
			ref.want[i] = "reject"
			if d.Admitted {
				ref.want[i] = "admit"
			}
			if tr != nil {
				ref.specs[i] = spec
			}
		case "del":
			if sample {
				runtime.ReadMemStats(&before)
			}
			s := tr.begin("admission.release", root, i)
			ok, err := ctl.Release(op.Name)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			ref.want[i] = "miss"
			if ok {
				ref.want[i] = "ok"
			}
		case "sub":
			subs[op.Name] = true
			ref.want[i] = "sub"
		case "unsub":
			delete(subs, op.Name)
			ref.want[i] = "unsub"
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
		if sample && (op.Op == "add" || op.Op == "del") {
			runtime.ReadMemStats(&after)
			allocSamples++
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		if mirrorSys != nil && i < syncEnd {
			ref.eventsSync += mirrorFolds(mirrorSys, folds, subs, tr, root, i)
		}
		folds = folds[:0]
		tr.end(root)

		if mirrorSys != nil && i == syncEnd-1 {
			nw := mirrorSys.Network()
			ref.residentsEnd = nw.NumFlows()
			for _, members := range nw.Closures() {
				if len(members) > ref.largestClosure {
					ref.largestClosure = len(members)
				}
			}
			ref.closuresEnd = ctl.NumShards()
			start := time.Now()
			if _, err := mirrorSys.Analyze(gmfnet.AnalysisConfig{}); err != nil {
				return nil, fmt.Errorf("cold analysis of the resident set: %w", err)
			}
			ref.coldAnalyze = time.Since(start)
		}
	}
	ref.admitted, ref.rejected = ctl.Admitted(), ctl.Rejected()
	ref.released, ref.resident = ctl.Released(), ctl.NumResidents()
	start := time.Now()
	closed = true
	if err := ctl.Close(); err != nil {
		return nil, fmt.Errorf("controller close: %w", err)
	}
	ref.closeTime = time.Since(start)
	if allocSamples > 0 {
		ref.allocsPerOp = float64(mallocs) / float64(allocSamples)
		ref.kbPerOp = float64(bytes) / float64(allocSamples) / 1024
	}
	return ref, nil
}

// mirrorFolds applies one op's fold events to the standalone network
// exactly as admitd's fanout applies them to its shadow — AddFlow then
// the newcomer's closure; for a departure a scan for the spec pointer,
// its closure, then RemoveFlow — inside one network.mirror span, and
// returns the number of events the daemon owes a connection subscribed
// to subs: one per subscribed member of each changed closure. Trace
// flow names are unique, so members need no de-duplication by name.
func mirrorFolds(sys *gmfnet.System, folds []admission.FoldEvent, subs map[string]bool, tr *tracer, parent, op int) int64 {
	nw := sys.Network()
	var events int64
	for _, ev := range folds {
		var members []int
		switch ev.Kind {
		case admission.FoldAdmitted:
			s := tr.begin("network.mirror", parent, op)
			idx, err := nw.AddFlow(ev.Spec)
			if err == nil {
				members = nw.Closures()[nw.ClosureOf(idx)]
			}
			tr.end(s)
			events += subscribedMembers(sys, members, subs)
		case admission.FoldReleased:
			s := tr.begin("network.mirror", parent, op)
			idx := -1
			for i := 0; i < nw.NumFlows(); i++ {
				if nw.Flow(i) == ev.Spec {
					idx = i
					break
				}
			}
			if idx >= 0 {
				members = nw.Closures()[nw.ClosureOf(idx)]
			}
			// The member list is only valid until the removal.
			events += subscribedMembers(sys, members, subs)
			if idx >= 0 {
				nw.RemoveFlow(idx)
			}
			tr.end(s)
		}
	}
	return events
}

func subscribedMembers(sys *gmfnet.System, members []int, subs map[string]bool) int64 {
	if len(subs) == 0 {
		return 0
	}
	var n int64
	nw := sys.Network()
	for _, i := range members {
		if subs[nw.Flow(i).Flow.Name] {
			n++
		}
	}
	return n
}

// convergence is the fixpoint effort of the sync range's requests.
type convergence struct {
	requests, sweeps, rounds, sweepsMax int
}

// convergencePass replays warm-up and sync range through a second
// ParallelController that retains each decision's analysis over the
// sync range, and reads the fixpoint sweeps and worklist rounds of
// every request there. It reuses the specs the traced replay built and
// is not timed: retaining analyses costs what the daemon's
// counters-only mode exists to avoid.
func convergencePass(wl workloadDef, ops []workload.Op, specs []*gmfnet.FlowSpec) (convergence, error) {
	var cv convergence
	topo, _, err := wl.Topo.Build()
	if err != nil {
		return cv, err
	}
	ctl, err := gmfnet.NewSystem(topo).NewParallelAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		return cv, err
	}
	defer ctl.Close()
	ctl.SetRetention(admission.RetainCounters)
	for i := range ops[:wl.Warm+wl.Sync] {
		if i == wl.Warm {
			ctl.SetRetention(admission.RetainAll)
		}
		switch ops[i].Op {
		case "add":
			d, err := ctl.Request(specs[i])
			if err != nil {
				return cv, fmt.Errorf("op %d: %w", i, err)
			}
			if i < wl.Warm {
				continue
			}
			st := decisionStats(d)
			cv.requests++
			cv.sweeps += st.Iterations
			cv.rounds += st.WorklistRounds
			if st.Iterations > cv.sweepsMax {
				cv.sweepsMax = st.Iterations
			}
		case "del":
			if _, err := ctl.Release(ops[i].Name); err != nil {
				return cv, fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return cv, nil
}

// decisionStats reads a decision's convergence breakdown wherever the
// deciding controller put it, closing a live view after reading.
func decisionStats(d gmfnet.AdmissionDecision) gmfnet.ConvergenceStats {
	if d.View != nil {
		st := d.View.Stats()
		d.View.Close()
		return st
	}
	if r := d.Analysis(); r != nil {
		return r.Stats
	}
	return gmfnet.ConvergenceStats{}
}

// coldMismatches replays the leading ops through the from-scratch
// ColdController — the paper's analysis run cold on every request —
// and returns how many of its verdicts differ from want.
func coldMismatches(wl workloadDef, ops []workload.Op, want []string) (int, error) {
	topo, _, err := wl.Topo.Build()
	if err != nil {
		return 0, err
	}
	cold, err := admission.NewColdController(gmfnet.NewSystem(topo).Network(), gmfnet.AnalysisConfig{})
	if err != nil {
		return 0, err
	}
	bad := 0
	for i := range ops {
		var got string
		switch ops[i].Op {
		case "add":
			spec, err := ops[i].Spec(topo)
			if err != nil {
				return 0, err
			}
			d, err := cold.Request(spec)
			if err != nil {
				return 0, fmt.Errorf("cold op %d: %w", i, err)
			}
			got = "reject"
			if d.Admitted {
				got = "admit"
			}
		case "del":
			ok, err := cold.Release(ops[i].Name)
			if err != nil {
				return 0, fmt.Errorf("cold op %d: %w", i, err)
			}
			got = "miss"
			if ok {
				got = "ok"
			}
		default:
			continue
		}
		if got != want[i] {
			bad++
		}
	}
	return bad, nil
}
