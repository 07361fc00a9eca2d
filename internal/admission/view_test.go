package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// sameBounds asserts two analyses agree on every flow's name, stage
// error presence and per-frame bound.
func sameBounds(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing analysis (got %v, want %v)", label, got != nil, want != nil)
	}
	if len(got.Flows) != len(want.Flows) || got.Converged != want.Converged {
		t.Fatalf("%s: %d flows converged=%v, want %d converged=%v",
			label, len(got.Flows), got.Converged, len(want.Flows), want.Converged)
	}
	for i := range want.Flows {
		g, w := &got.Flows[i], &want.Flows[i]
		if g.Name != w.Name || (g.Err == nil) != (w.Err == nil) || len(g.Frames) != len(w.Frames) {
			t.Fatalf("%s flow %d: %+v vs %+v", label, i, g, w)
		}
		for k := range w.Frames {
			if g.Frames[k].Response != w.Frames[k].Response || g.Frames[k].Deadline != w.Frames[k].Deadline {
				t.Fatalf("%s flow %d frame %d: bound %v/%v vs %v/%v", label, i, k,
					g.Frames[k].Response, g.Frames[k].Deadline, w.Frames[k].Response, w.Frames[k].Deadline)
			}
		}
	}
}

// TestDecisionViewsMatchColdBounds drives the sharded controller and
// the from-scratch cold baseline through an identical randomized
// request/departure stream and pins, per decision: the verdict, the
// record's O(1) verdict against it, and — read only after the whole
// stream has churned the shard engines — the decision's on-demand
// analysis against the analysis the cold controller made at decision
// time. Every route crosses link 6->3, so the request's shard is the
// whole network and the two analyses cover the same flows in the same
// order.
func TestDecisionViewsMatchColdBounds(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
			inc, err := NewShardedController(network.New(topo), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			inc.SetRetention(RetainAll)
			cold, err := NewColdController(network.New(topo), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			routes := [][]network.NodeID{
				{"0", "4", "6", "3"},
				{"1", "4", "6", "3"},
				{"2", "5", "6", "3"},
			}
			type retained struct {
				d, cold Decision
				op      int
			}
			var kept []retained
			var admittedNames []string
			rejected := 0
			for op := 0; op < 30; op++ {
				if len(admittedNames) > 0 && r.Float64() < 0.25 {
					victim := admittedNames[r.Intn(len(admittedNames))]
					if _, err := inc.Release(victim); err != nil {
						t.Fatal(err)
					}
					if _, err := cold.Release(victim); err != nil {
						t.Fatal(err)
					}
					for i, n := range admittedNames {
						if n == victim {
							admittedNames = append(admittedNames[:i], admittedNames[i+1:]...)
							break
						}
					}
					continue
				}
				nm := fmt.Sprintf("f%d", op)
				route := routes[r.Intn(len(routes))]
				var flow = trace.CBRVideo(nm, 2000+r.Int63n(20000), 40*units.Millisecond, 250*units.Millisecond)
				if r.Intn(3) == 0 {
					flow = trace.MPEGIBBPBBPBB(nm, trace.MPEGOptions{Deadline: 300 * units.Millisecond})
				}
				spec := &network.FlowSpec{Flow: flow, Route: route, Priority: network.Priority(r.Intn(3))}
				specCopy := *spec
				dInc, err := inc.Request(spec)
				if err != nil {
					t.Fatal(err)
				}
				dCold, err := cold.Request(&specCopy)
				if err != nil {
					t.Fatal(err)
				}
				if dInc.Admitted != dCold.Admitted {
					t.Fatalf("op %d: verdicts diverged: sharded=%v cold=%v", op, dInc.Admitted, dCold.Admitted)
				}
				if dInc.View == nil {
					t.Fatalf("op %d: sharded controller recorded no verdict", op)
				}
				if dInc.View.Verdict.Schedulable != dInc.Admitted {
					t.Fatalf("op %d: recorded verdict %v, decision %v", op, dInc.View.Verdict.Schedulable, dInc.Admitted)
				}
				if !dInc.Admitted {
					rejected++
				}
				kept = append(kept, retained{d: dInc, cold: dCold, op: op})
				if dInc.Admitted {
					admittedNames = append(admittedNames, nm)
				}
			}
			if rejected == 0 {
				t.Fatal("stream made no rejection")
			}
			for _, re := range kept {
				res := re.d.Analysis()
				sameBounds(t, fmt.Sprintf("decision from op %d", re.op), res, re.cold.Result)
				if res.Schedulable() != re.d.Admitted {
					t.Fatalf("decision from op %d: analysis schedulable=%v, admitted=%v", re.op, res.Schedulable(), re.d.Admitted)
				}
				if re.d.Analysis() != res {
					t.Fatalf("decision from op %d: second Analysis call did not return the cached result", re.op)
				}
			}
		})
	}
}

// names lists a record's retained flow names in order.
func names(r *Record) []string {
	var out []string
	for _, fs := range r.specs {
		out = append(out, fs.Flow.Name)
	}
	return out
}

// TestBatchDecisionViews pins the batched path's records: admitted
// decisions share the record of the batch's final analysis, a rejected
// decision records the prefix that violated — the admitted flows before
// it plus itself — and both explain their decision after later batches
// and departures. Close drops a record's flow set but keeps an analysis
// already computed.
func TestBatchDecisionViews(t *testing.T) {
	topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetRetention(RetainAll)
	specs := []*network.FlowSpec{
		{Flow: trace.CBRVideo("a", 4000, 40*units.Millisecond, 300*units.Millisecond), Route: []network.NodeID{"0", "4", "6", "3"}, Priority: 1},
		{Flow: trace.CBRVideo("hog", 150000, 100*units.Millisecond, 100*units.Millisecond), Route: []network.NodeID{"0", "4", "6", "3"}, Priority: 2},
		{Flow: trace.CBRVideo("b", 4000, 40*units.Millisecond, 300*units.Millisecond), Route: []network.NodeID{"1", "4", "6", "3"}, Priority: 1},
	}
	ds, err := ctl.RequestBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !ds[0].Admitted || ds[1].Admitted || !ds[2].Admitted {
		t.Fatalf("unexpected verdicts: %v %v %v", ds[0].Admitted, ds[1].Admitted, ds[2].Admitted)
	}
	if ds[0].View != ds[2].View {
		t.Fatal("admitted batch decisions do not share the final record")
	}
	if ds[1].View == ds[0].View {
		t.Fatal("rejected decision shares the admitted record")
	}
	if ds[1].View.Verdict.Schedulable {
		t.Fatal("rejected decision's verdict claims schedulable")
	}
	// Churn the engine: another batch plus a departure.
	if _, err := ctl.RequestBatch([]*network.FlowSpec{
		{Flow: trace.CBRVideo("c", 4000, 40*units.Millisecond, 300*units.Millisecond), Route: []network.NodeID{"2", "5", "6", "3"}, Priority: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Release("a"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(names(ds[0].View)); got != "[a b]" {
		t.Fatalf("admitted record holds %s, want [a b]", got)
	}
	if got := fmt.Sprint(names(ds[1].View)); got != "[a hog]" {
		t.Fatalf("rejected record holds %s, want [a hog]", got)
	}
	adm, rej := ds[0].Analysis(), ds[1].Analysis()
	if !adm.Schedulable() || rej.Schedulable() {
		t.Fatalf("record analyses: admitted schedulable=%v, rejected schedulable=%v", adm.Schedulable(), rej.Schedulable())
	}
	// Every analysed flow is named, also those after a stage error.
	for _, c := range []struct {
		res  *core.Result
		want string
	}{{adm, "[a b]"}, {rej, "[a hog]"}} {
		var got []string
		for i, fr := range c.res.Flows {
			if fr.Index != i {
				t.Fatalf("analysis flow %d carries index %d", i, fr.Index)
			}
			got = append(got, fr.Name)
		}
		if fmt.Sprint(got) != c.want {
			t.Fatalf("analysis names %v, want %s", got, c.want)
		}
	}
	if rej.Flows[0].Err == nil || len(rej.Flows[1].Frames) != 0 {
		t.Fatalf("rejected analysis: want a stage error at a and no frames for hog, got err %v and %d frames", rej.Flows[0].Err, len(rej.Flows[1].Frames))
	}
	ds[1].View.Close()
	if ds[1].Analysis() != rej {
		t.Fatal("Close dropped an analysis already computed")
	}
	d, err := ctl.Request(&network.FlowSpec{Flow: trace.CBRVideo("d", 4000, 40*units.Millisecond, 300*units.Millisecond), Route: []network.NodeID{"2", "5", "6", "3"}, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.View.Close()
	if d.Analysis() != nil {
		t.Fatal("a record closed before analysis still analysed")
	}
	if d.View.Stats().Iterations == 0 {
		t.Fatal("Close dropped the verdict's stats")
	}
}
