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

// frameCap is a deep, slice-free capture of one flow's bounds read off a
// decision view at decision time.
type frameCap struct {
	name     string
	hasErr   bool
	response []units.Time
	deadline []units.Time
}

func captureView(v *core.ResultView) []frameCap {
	out := make([]frameCap, v.NumFlows())
	for i := range out {
		fr := v.Flow(i)
		c := frameCap{name: fr.Name, hasErr: fr.Err != nil}
		for k := range fr.Frames {
			c.response = append(c.response, fr.Frames[k].Response)
			c.deadline = append(c.deadline, fr.Frames[k].Deadline)
		}
		out[i] = c
	}
	return out
}

func checkCapture(t *testing.T, label string, v *core.ResultView, want []frameCap) {
	t.Helper()
	if v.NumFlows() != len(want) {
		t.Fatalf("%s: view now covers %d flows, captured %d", label, v.NumFlows(), len(want))
	}
	for i, w := range want {
		fr := v.Flow(i)
		if fr.Name != w.name || (fr.Err != nil) != w.hasErr || len(fr.Frames) != len(w.response) {
			t.Fatalf("%s: flow %d drifted: %+v vs capture %+v", label, i, fr, w)
		}
		for k := range w.response {
			if fr.Frames[k].Response != w.response[k] || fr.Frames[k].Deadline != w.deadline[k] {
				t.Fatalf("%s: flow %d frame %d bound drifted: %v/%v vs %v/%v",
					label, i, k, fr.Frames[k].Response, fr.Frames[k].Deadline, w.response[k], w.deadline[k])
			}
		}
	}
}

// TestDecisionViewsMatchColdBounds drives the view-based sharded
// controller and the from-scratch cold baseline through an identical
// randomized request/departure stream and pins, per decision: the
// verdict, the bounds served by the decision's copy-on-read view against
// the cold controller's detached result, and — the new property — that
// every retained decision view keeps serving its decision-time bounds
// unchanged while later requests, rejections and departures churn the
// shared engine state underneath it.
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
				d    Decision
				want []frameCap
				op   int
			}
			var kept []retained
			var admittedNames []string
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
				} else {
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
						t.Fatalf("op %d: verdicts diverged: view=%v cold=%v", op, dInc.Admitted, dCold.Admitted)
					}
					if dInc.View == nil {
						t.Fatalf("op %d: engine controller produced no view", op)
					}
					if dInc.View.Schedulable() != dInc.Admitted {
						t.Fatalf("op %d: view verdict %v, decision %v", op, dInc.View.Schedulable(), dInc.Admitted)
					}
					// For converged analyses — admissions and deadline-miss
					// rejections — the view's bounds must equal the cold
					// baseline's detached result, flow for flow (the least
					// fixpoint is unique). Stage-error analyses are only
					// verdict-compared: the one-shot analyzer stops at the
					// failing flow and leaves the rest zero, while the warm
					// engine legitimately still carries the other flows'
					// previous bounds.
					if dInc.View.Converged() && dCold.Result.Converged {
						want := dCold.Result
						if dInc.View.NumFlows() != len(want.Flows) {
							t.Fatalf("op %d: view covers %d flows, cold result %d", op, dInc.View.NumFlows(), len(want.Flows))
						}
						for i := range want.Flows {
							g, w := dInc.View.Flow(i), &want.Flows[i]
							if g.Name != w.Name || (g.Err == nil) != (w.Err == nil) || len(g.Frames) != len(w.Frames) {
								t.Fatalf("op %d flow %d: %+v vs cold %+v", op, i, g, w)
							}
							for k := range w.Frames {
								if g.Frames[k].Response != w.Frames[k].Response {
									t.Fatalf("op %d flow %d frame %d: bound %v vs cold %v",
										op, i, k, g.Frames[k].Response, w.Frames[k].Response)
								}
							}
						}
					}
					kept = append(kept, retained{d: dInc, want: captureView(dInc.View), op: op})
					if dInc.Admitted {
						admittedNames = append(admittedNames, nm)
					}
				}
				for _, re := range kept {
					checkCapture(t, fmt.Sprintf("op %d, decision from op %d", op, re.op), re.d.View, re.want)
				}
			}
			// Materialized decisions must reproduce the captures too, and
			// Analysis() must serve them controller-agnostically.
			for _, re := range kept {
				res := re.d.Analysis()
				if len(res.Flows) != len(re.want) {
					t.Fatalf("decision from op %d materialized to %d flows, captured %d", re.op, len(res.Flows), len(re.want))
				}
				for i, w := range re.want {
					for k := range w.response {
						if res.Flows[i].Frames[k].Response != w.response[k] {
							t.Fatalf("decision from op %d: materialized flow %d frame %d drifted", re.op, i, k)
						}
					}
				}
			}
		})
	}
}

// TestBatchDecisionViews pins the batched path's view plumbing: admitted
// decisions share the batch's final converged view, rejected decisions
// carry the violating probe analysis, and both stay frozen across a
// subsequent batch.
func TestBatchDecisionViews(t *testing.T) {
	topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("admitted batch decisions do not share the final view")
	}
	if ds[1].View == ds[0].View {
		t.Fatal("rejected decision shares the admitted view")
	}
	if ds[1].View.Schedulable() {
		t.Fatal("rejected decision's view claims schedulable")
	}
	caps := [][]frameCap{captureView(ds[0].View), captureView(ds[1].View)}
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
	checkCapture(t, "admitted batch view", ds[0].View, caps[0])
	checkCapture(t, "rejected batch view", ds[1].View, caps[1])
}
