package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gmfnet/internal/network"
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

// checkCounters asserts the engine's verdict counters equal a scan of
// its live headers.
func checkCounters(t *testing.T, label string, eng *Engine) {
	t.Helper()
	unsched, errs := 0, 0
	for i := range eng.flows {
		if !eng.flows[i].Schedulable() {
			unsched++
		}
		if eng.flows[i].Err != nil {
			errs++
		}
	}
	if eng.unsched != unsched || eng.errcnt != errs {
		t.Fatalf("%s: counters unsched=%d errcnt=%d, headers scan to %d/%d", label, eng.unsched, eng.errcnt, unsched, errs)
	}
}
