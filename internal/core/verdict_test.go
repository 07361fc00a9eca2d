package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// TestVerdictMatchesAnalyze pins the basic contract: the verdict of a
// converged engine reports the same schedulability, convergence and
// stats as the detached Analyze result, and the Result's bounds-checked
// accessors behave as documented.
func TestVerdictMatchesAnalyze(t *testing.T) {
	topo := engineTopo(t)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []*network.FlowSpec{
		voipOn("v1", "a1", "sA", "a2"),
		voipOn("v2", "a2", "sA", "sB", "b1"),
		voipOn("v3", "b2", "sB", "b3"),
	} {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	v := eng.Converge()
	res, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if v.Schedulable != res.Schedulable() || v.Converged != res.Converged || v.Stats != res.Stats ||
		v.NoConvergence != nil || v.StageErrors != 0 {
		t.Fatalf("verdict %+v disagrees with Analyze (schedulable=%v converged=%v stats=%+v)",
			v, res.Schedulable(), res.Converged, res.Stats)
	}
	if !v.Schedulable {
		t.Fatal("three VoIP flows judged unschedulable")
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Result.Flow(99) did not panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "99") {
				t.Fatalf("panic message %q does not name the index", msg)
			}
		}()
		res.Flow(99)
	}()
	if _, err := res.FlowByIndex(len(res.Flows)); err == nil {
		t.Fatal("Result.FlowByIndex accepted an out-of-range index")
	}
	if _, err := res.FlowByIndex(-1); err == nil {
		t.Fatal("Result.FlowByIndex accepted a negative index")
	}
}

// TestVerdictSchedulableCounter cross-checks the O(1) verdict (the
// engine's maintained counters) against a full scan of the detached
// Result while an engine admits and loses a mix of feasible and
// infeasible flows.
func TestVerdictSchedulableCounter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	topo, hosts := randomEngineTopo(t, r)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 14; op++ {
		if eng.Network().NumFlows() > 0 && r.Intn(4) == 0 {
			if err := eng.RemoveFlow(r.Intn(eng.Network().NumFlows())); err != nil {
				t.Fatal(err)
			}
		} else {
			fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("f%d", op))
			if _, err := eng.AddFlow(fs); err != nil {
				t.Fatal(err)
			}
		}
		v := eng.Converge()
		checkCounters(t, fmt.Sprintf("op %d", op), eng)
		res, err := eng.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if v.Schedulable != res.Schedulable() {
			t.Fatalf("op %d: O(1) verdict %v, scanned verdict %v", op, v.Schedulable, res.Schedulable())
		}
		errs := 0
		for i := range res.Flows {
			if res.Flows[i].Err != nil {
				errs++
			}
		}
		if v.StageErrors != errs {
			t.Fatalf("op %d: StageErrors=%d, scan found %d", op, v.StageErrors, errs)
		}
	}
}

// TestVerdictDeadlineAtBound pins the boundary of the miss bit: a frame
// whose bound equals its deadline meets it, as FrameResult.Meets says.
// With every deadline set exactly on the cold bounds the engine's
// verdict is schedulable; one picosecond less, and it is not. The
// missing flows then depart one by one, and the counters must follow.
func TestVerdictDeadlineAtBound(t *testing.T) {
	topo := engineTopo(t)
	specs := []*network.FlowSpec{
		voipOn("v1", "a1", "sA", "a2"),
		voipOn("v2", "a2", "sA", "sB", "b1"),
	}
	nw := network.New(topo)
	for _, fs := range specs {
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	cold := coldReferee(t, nw)
	for _, slack := range []units.Time{0, -1} {
		eng, err := NewEngine(network.New(topo), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i, fs := range specs {
			fl := *fs.Flow
			fl.Frames = slices.Clone(fl.Frames)
			for k := range fl.Frames {
				fl.Frames[k].Deadline = cold.Flows[i].Frames[k].Response + slack
			}
			at := *fs
			at.Flow = &fl
			if _, err := eng.AddFlow(&at); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := eng.Converge().Schedulable, slack == 0; got != want {
			t.Fatalf("deadlines at the bounds %+v: schedulable %v, want %v", slack, got, want)
		}
		for eng.Network().NumFlows() > 0 {
			if err := eng.RemoveFlow(0); err != nil {
				t.Fatal(err)
			}
			checkCounters(t, fmt.Sprintf("slack %v, %d flows left", slack, eng.Network().NumFlows()), eng)
		}
	}
}

// TestStageErrorsCountThisPass pins that a cold pass resets every
// status before it runs: StageErrors counts only the flows passed in
// this convergence, as the cold Analyzer reports them. The first pass
// fails on b (overloaded alone); the next one, cold, fails on a before
// it reaches b again, so b's old error must not count.
func TestStageErrorsCountThisPass(t *testing.T) {
	topo := engineTopo(t)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	video := func(name string, bytesPerMs int64, route ...network.NodeID) *network.FlowSpec {
		fl := trace.CBRVideo(name, bytesPerMs, units.Millisecond, 100*units.Millisecond)
		return &network.FlowSpec{Flow: fl, Route: route, Priority: 2}
	}
	for _, step := range []struct {
		fs   *network.FlowSpec
		errs int
	}{
		{video("a", 7500, "a1", "sA", "a2"), 0},  // 60 Mbit/s: bounded
		{video("b", 15000, "b2", "sB", "b3"), 1}, // 120 Mbit/s: overloads its first hop
		{video("c", 7500, "a1", "sA", "a2"), 1},  // a and c overload theirs; b is not reached
	} {
		if _, err := eng.AddFlow(step.fs); err != nil {
			t.Fatal(err)
		}
		v := eng.Converge()
		cold := coldReferee(t, eng.Network())
		errs := 0
		for i := range cold.Flows {
			if cold.Flows[i].Err != nil {
				errs++
			}
		}
		if v.StageErrors != step.errs || errs != step.errs {
			t.Fatalf("after adding %s: StageErrors=%d, cold errors %d, want %d",
				step.fs.Flow.Name, v.StageErrors, errs, step.errs)
		}
		checkCounters(t, "after adding "+step.fs.Flow.Name, eng)
	}
}

// statuses lists the engine's flow statuses in flow order.
func statuses(eng *Engine) []flowStatus {
	out := make([]flowStatus, len(eng.js.blocks))
	for j := range eng.js.blocks {
		out[j] = eng.js.blocks[j].st
	}
	return out
}

// checkCounters asserts the engine keeps one flow entry — one status —
// per flow, that its verdict counters equal a scan of the statuses, and
// that the changed and dirty lists agree with the entries' marks.
func checkCounters(t *testing.T, label string, eng *Engine) {
	t.Helper()
	js := eng.js
	if len(js.blocks) != eng.Network().NumFlows() {
		t.Fatalf("%s: %d flow entries for %d flows", label, len(js.blocks), eng.Network().NumFlows())
	}
	unsched, errs := 0, 0
	for _, st := range statuses(eng) {
		if st.err != nil || st.miss {
			unsched++
		}
		if st.err != nil {
			errs++
		}
	}
	if js.unsched != unsched || js.errcnt != errs {
		t.Fatalf("%s: counters unsched=%d errcnt=%d, statuses scan to %d/%d", label, js.unsched, js.errcnt, unsched, errs)
	}
	for _, l := range []struct {
		name string
		list []int
		mark func(*flowBlock) bool
	}{
		{"changed", js.changedList, func(b *flowBlock) bool { return b.changed }},
		{"dirty", js.dirty, func(b *flowBlock) bool { return b.dirty }},
	} {
		seen := make(map[int]bool, len(l.list))
		for _, j := range l.list {
			if j < 0 || j >= len(js.blocks) || seen[j] || !l.mark(&js.blocks[j]) {
				t.Fatalf("%s: %s list %v: flow %d out of range, repeated or unmarked (%d flows)", label, l.name, l.list, j, len(js.blocks))
			}
			seen[j] = true
		}
		for j := range js.blocks {
			if l.mark(&js.blocks[j]) && !seen[j] {
				t.Fatalf("%s: flow %d carries the %s mark but is not on its list %v", label, j, l.name, l.list)
			}
		}
	}
}
