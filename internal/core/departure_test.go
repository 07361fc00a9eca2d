package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
	"gmfnet/internal/workload"
)

// coldReferee is the paper's one-shot analysis of the network's current
// flow set: the oracle every warm answer must equal.
func coldReferee(t *testing.T, nw *network.Network) *Result {
	t.Helper()
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameBounds asserts two analyses agree exactly: verdict, convergence
// and, when converged, every frame's response and every stage record
// (resource, response, entry jitter).
func sameBounds(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Converged != want.Converged || got.Schedulable() != want.Schedulable() {
		t.Fatalf("%s: converged/schedulable %v/%v, cold %v/%v",
			ctx, got.Converged, got.Schedulable(), want.Converged, want.Schedulable())
	}
	if !got.Converged {
		return
	}
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("%s: %d flows, cold %d", ctx, len(got.Flows), len(want.Flows))
	}
	for i := range want.Flows {
		g, w := &got.Flows[i], &want.Flows[i]
		if g.Name != w.Name || (g.Err == nil) != (w.Err == nil) || len(g.Frames) != len(w.Frames) {
			t.Fatalf("%s: flow %d %q (err %v, %d frames), cold %q (err %v, %d frames)",
				ctx, i, g.Name, g.Err, len(g.Frames), w.Name, w.Err, len(w.Frames))
		}
		for k := range w.Frames {
			gf, wf := &g.Frames[k], &w.Frames[k]
			if gf.Response != wf.Response || len(gf.Stages) != len(wf.Stages) {
				t.Fatalf("%s: flow %q frame %d bound %v (%d stages), cold %v (%d stages)",
					ctx, w.Name, k, gf.Response, len(gf.Stages), wf.Response, len(wf.Stages))
			}
			for s := range wf.Stages {
				if gf.Stages[s] != wf.Stages[s] {
					t.Fatalf("%s: flow %q frame %d stage %d = %+v, cold %+v",
						ctx, w.Name, k, s, gf.Stages[s], wf.Stages[s])
				}
			}
		}
	}
}

// checkCold converges the engine and compares it with the cold referee.
func checkCold(t *testing.T, ctx string, eng *Engine) {
	t.Helper()
	res, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sameBounds(t, ctx, res, coldReferee(t, eng.Network()))
}

// freshSweeps is the sweep count of admitting fs into a fresh engine
// that holds nw's flows at their cold-analysed fixpoint with nothing
// pending: the state every request must start from, however the
// residents' departures were converged.
func freshSweeps(t *testing.T, nw *network.Network, fs *network.FlowSpec) int {
	t.Helper()
	eng, err := NewEngine(network.New(nw.Topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range nw.Flows() {
		if _, err := eng.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddFlow(fs); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.Iterations
}

// TestWarmDepartureMatchesCold replays synthesized open-loop traces on
// the three generator topologies through a bare Engine, the way the
// admission controller drives it: an add is Snapshot → AddFlow →
// Analyze → Discard (admitted) or Restore (rejected), a del is
// RemoveFlow. After every op the engine's bounds must equal the cold
// analysis of the current flow set, and every tentative analysis must
// take as many sweeps as it takes from a fresh engine holding the same
// residents — a departure leaves no trace beyond its fixpoint. In the
// eager leg every del is followed by an analysis (what a shard's
// departure does); in the lazy leg dels are left pending, so
// consecutive departures pile up into one descent and the next add has
// to converge it first.
func TestWarmDepartureMatchesCold(t *testing.T) {
	topos := []struct {
		name string
		spec workload.TopoSpec
	}{
		{"clos", workload.TopoSpec{Kind: "clos", Switches: 6, Fanout: 2, Hosts: 4}},
		{"fronthaul", workload.TopoSpec{Kind: "fronthaul", Switches: 3, Fanout: 3, Hosts: 2}},
		{"backbone", workload.TopoSpec{Kind: "backbone", Switches: 3, Fanout: 3, Hosts: 2}},
	}
	for _, tc := range topos {
		for seed := int64(1); seed <= 2; seed++ {
			for _, lazy := range []bool{false, true} {
				tc, seed, lazy := tc, seed, lazy
				t.Run(fmt.Sprintf("%s/seed%d/lazy=%v", tc.name, seed, lazy), func(t *testing.T) {
					replayWarmDepartures(t, tc.spec, seed, lazy)
				})
			}
		}
	}
}

func replayWarmDepartures(t *testing.T, spec workload.TopoSpec, seed int64, lazy bool) {
	_, ops, err := workload.Synthesize(spec, workload.Config{
		Seed: seed, Requests: 160, Hold: 40, Local: 0.5, Heavy: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	nw := eng.Network()
	var warm, admitted, rejected int
	for pc := range ops {
		op := &ops[pc]
		ctx := fmt.Sprintf("op %d (%s %s, %d flows)", pc, op.Op, op.Name, nw.NumFlows())
		switch op.Op {
		case "add":
			fs, err := op.Spec(topo)
			if err != nil {
				t.Fatal(err)
			}
			want := freshSweeps(t, nw, fs)
			snap := eng.Snapshot()
			if _, err := eng.AddFlow(fs); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			sameBounds(t, ctx+" tentative", res, coldReferee(t, nw))
			if res.Stats.Iterations != want {
				t.Fatalf("%s: request took %d sweeps, %d from a fresh engine", ctx, res.Stats.Iterations, want)
			}
			if res.Schedulable() {
				eng.Discard(snap)
				admitted++
			} else if err := eng.Restore(snap); err != nil {
				t.Fatal(err)
			} else {
				rejected++
			}
			checkCold(t, ctx, eng)
		case "del":
			at := -1
			for i := 0; i < nw.NumFlows(); i++ {
				if nw.Flow(i).Flow.Name == op.Name {
					at = i
					break
				}
			}
			if at < 0 {
				continue // the flow was rejected
			}
			if err := eng.RemoveFlow(at); err != nil {
				t.Fatal(err)
			}
			if !nw.PipelinesAcyclic() {
				t.Fatalf("%s: shortest-path routes formed a cyclic resource graph", ctx)
			}
			if eng.descending {
				warm++
			}
			if !lazy {
				checkCold(t, ctx, eng)
			}
		}
	}
	t.Logf("%d admitted, %d rejected, %d warm departures", admitted, rejected, warm)
	if warm == 0 || rejected == 0 {
		t.Fatalf("trace too tame: %d warm departures, %d rejections", warm, rejected)
	}
}

// warmFixture returns a converged engine on a small Clos with a handful
// of cross-leaf flows (feed-forward pipelines), plus a generator of
// further cross-leaf VoIP and heavy CBR specs.
func warmFixture(t *testing.T) (*Engine, func(name string, heavy bool) *network.FlowSpec) {
	t.Helper()
	topo, hosts, err := network.ClosTenant(2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	gen := func(name string, heavy bool) *network.FlowSpec {
		src := hosts[r.Intn(3)]   // leaf 0
		dst := hosts[3+r.Intn(9)] // leaves 1-3
		route, err := topo.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		f := trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond})
		if heavy {
			f = trace.CBRVideo(name, 60000, 20*units.Millisecond, 200*units.Millisecond)
		}
		return &network.FlowSpec{Flow: f, Route: route, Priority: network.Priority(r.Intn(3))}
	}
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := eng.AddFlow(gen(fmt.Sprintf("base%d", k), k%3 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	checkCold(t, "fixture", eng)
	if !eng.Network().PipelinesAcyclic() {
		t.Fatal("fixture routes are not feed-forward")
	}
	return eng, gen
}

// TestIsolatedDepartureLeavesNothingPending pins the degenerate
// departure: a flow that shares no directed link with anyone leaves no
// descent behind, so the next newcomer is seeded with its interferers
// as usual and converges in the sweeps a fresh engine needs.
func TestIsolatedDepartureLeavesNothingPending(t *testing.T) {
	eng, err := NewEngine(network.New(engineTopo(t)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []*network.FlowSpec{
		voipOn("a-local", "a1", "sA", "a2"),
		voipOn("b-local", "b1", "sB", "b2"),
	} {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	checkCold(t, "fixture", eng)
	if err := eng.RemoveFlow(1); err != nil {
		t.Fatal(err)
	}
	if eng.descending || len(eng.dirty) != 0 {
		t.Fatalf("isolated departure left descending=%v dirty=%v", eng.descending, eng.dirty)
	}
	eng.Converge()
	fs := voipOn("newcomer", "a1", "sA", "a3")
	want := freshSweeps(t, eng.Network(), fs)
	if _, err := eng.AddFlow(fs); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != want {
		t.Fatalf("newcomer took %d sweeps, %d from a fresh engine", res.Stats.Iterations, want)
	}
	checkCold(t, "final", eng)
}

// TestWarmDepartureEvictPattern pins evictBatch's remove-then-restage
// shape: two departures and two additions with no analysis between.
// The first AddFlow must converge the pending descent before it adds,
// so the newcomers start from the exact fixpoint of the survivors.
func TestWarmDepartureEvictPattern(t *testing.T) {
	eng, gen := warmFixture(t)
	snap := eng.Snapshot()
	for k := 0; k < 2; k++ {
		if err := eng.RemoveFlow(eng.Network().NumFlows() - 1 - k); err != nil {
			t.Fatal(err)
		}
		if !eng.descending {
			t.Fatalf("departure %d on feed-forward pipelines did not descend warm", k)
		}
	}
	for k := 0; k < 2; k++ {
		i, err := eng.AddFlow(gen(fmt.Sprintf("restaged%d", k), k == 0))
		if err != nil {
			t.Fatal(err)
		}
		if eng.descending || len(eng.dirty) != k+1 || !eng.dirty[i] {
			t.Fatalf("add %d: descending=%v dirty=%v; the descent must converge before the add",
				k, eng.descending, eng.dirty)
		}
	}
	checkCold(t, "after restage", eng)
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	checkCold(t, "after restore", eng)
}

// TestWarmDepartureRestoreKeepsDescent pins that the pending-descent
// mark is snapshot state: RemoveFlow → Snapshot → AddFlow (which
// converges the descent) → Restore must bring the mark back together
// with the dirty set, or the next AddFlow would stack a newcomer on
// jitters still above the fixpoint.
func TestWarmDepartureRestoreKeepsDescent(t *testing.T) {
	eng, gen := warmFixture(t)
	if err := eng.RemoveFlow(2); err != nil {
		t.Fatal(err)
	}
	if !eng.descending {
		t.Fatal("departure did not descend warm")
	}
	pending := len(eng.dirty)
	snap := eng.Snapshot()
	if _, err := eng.AddFlow(gen("probe", true)); err != nil {
		t.Fatal(err)
	}
	if eng.descending {
		t.Fatal("AddFlow left the descent pending")
	}
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !eng.descending || len(eng.dirty) != pending {
		t.Fatalf("Restore: descending=%v with %d dirty, want true with %d", eng.descending, len(eng.dirty), pending)
	}
	i, err := eng.AddFlow(gen("after", false))
	if err != nil {
		t.Fatal(err)
	}
	if eng.descending || len(eng.dirty) != 1 || !eng.dirty[i] {
		t.Fatalf("second AddFlow: descending=%v dirty=%v", eng.descending, eng.dirty)
	}
	checkCold(t, "final", eng)
}

// ringCrossing returns the cyclic fixture on network.Ring(6, 2): two
// clockwise routes over five switches each, sw0→…→sw4 and sw3→…→sw1,
// which overlap at both ends so each crosses the other's first ring
// link after its own last one.
func ringCrossing() (a, b []network.NodeID) {
	return []network.NodeID{"h0_0", "sw0", "sw1", "sw2", "sw3", "sw4", "h4_0"},
		[]network.NodeID{"h3_1", "sw3", "sw4", "sw5", "sw0", "sw1", "h1_1"}
}

// TestColdResetOnCyclicPipelines checks the fallback: while the
// resource graph has a cycle, a departure resets its closure cold
// instead of descending, and the bounds still equal the cold analysis.
// Removing one of the two crossing routes makes the graph acyclic again,
// and that departure already descends warm.
func TestColdResetOnCyclicPipelines(t *testing.T) {
	topo, _, err := network.Ring(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	nw := eng.Network()
	ra, rb := ringCrossing()
	for _, fs := range []*network.FlowSpec{
		{Flow: trace.CBRVideo("a", 40000, 10*units.Millisecond, 200*units.Millisecond), Route: ra, Priority: 1},
		{Flow: trace.CBRVideo("b", 40000, 10*units.Millisecond, 200*units.Millisecond), Route: rb, Priority: 1},
		voipOn("x", "h0_1", "sw0", "sw1", "h1_0"),
		voipOn("y", "h3_0", "sw3", "sw4", "h4_1"),
		voipOn("z", "h2_0", "sw2", "sw3", "h3_0"),
	} {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	checkCold(t, "cyclic fixture", eng)
	if nw.PipelinesAcyclic() {
		t.Fatal("crossing routes reported acyclic")
	}
	if err := eng.RemoveFlow(4); err != nil { // z
		t.Fatal(err)
	}
	if eng.descending {
		t.Fatal("departure on cyclic pipelines descended warm")
	}
	if len(eng.dirty) != nw.NumFlows() {
		t.Fatalf("cold reset covered %d of %d flows in the closure", len(eng.dirty), nw.NumFlows())
	}
	checkCold(t, "after cold-reset departure", eng)
	if err := eng.RemoveFlow(1); err != nil { // b breaks the cycle
		t.Fatal(err)
	}
	if !nw.PipelinesAcyclic() {
		t.Fatal("removing one crossing route left the graph cyclic")
	}
	if !eng.descending {
		t.Fatal("departure that broke the cycle did not descend warm")
	}
	checkCold(t, "after cycle-breaking departure", eng)
}

// FuzzWarmDeparture turns bytes into add/remove/analyze/snapshot/
// restore/discard scripts over a small Clos (feed-forward: departures
// descend warm) or the crossing ring (routes of random direction and
// length, so cycles come and go and departures switch between descent
// and cold reset). Every analysis and the final state must equal the
// cold Analyzer.
func FuzzWarmDeparture(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 1, 0, 2})             // clos: churn with a pending descent before an add
	f.Add([]byte{0, 0, 0, 0, 2, 1, 1, 0, 0, 2})       // clos: two departures, two restaged adds
	f.Add([]byte{0, 0, 0, 2, 1, 3, 0, 4, 0, 2})       // clos: remove, snapshot, add, restore, add
	f.Add([]byte{1, 0, 0, 0, 0, 2, 1, 2, 1, 2})       // ring: cycles form and break
	f.Add([]byte{1, 0, 0, 0, 2, 3, 1, 0, 5, 1, 4, 2}) // ring: departures inside a snapshot window
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 48 {
			data = data[:48]
		}
		topo, route := fuzzRouter(t, data[0]%2 == 1, rand.New(rand.NewSource(int64(len(data)))))
		eng, err := NewEngine(network.New(topo), Config{})
		if err != nil {
			t.Fatal(err)
		}
		nw := eng.Network()
		var snap *Snapshot
		for pc, b := range data[1:] {
			switch b % 6 {
			case 0:
				name := fmt.Sprintf("f%d", pc)
				fl := trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond})
				if b/6%3 == 0 {
					fl = trace.CBRVideo(name, 30000, 20*units.Millisecond, 200*units.Millisecond)
				}
				if _, err := eng.AddFlow(&network.FlowSpec{Flow: fl, Route: route(), Priority: network.Priority(b / 18 % 3)}); err != nil {
					t.Fatal(err)
				}
			case 1:
				if n := nw.NumFlows(); n > 0 {
					if err := eng.RemoveFlow(int(b/6) % n); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				checkCold(t, fmt.Sprintf("op %d", pc), eng)
			case 3:
				snap = eng.Snapshot()
			case 4:
				if snap != nil {
					if err := eng.Restore(snap); err != nil {
						t.Fatal(err)
					}
					snap = nil
				}
			case 5:
				eng.Discard(snap)
				snap = nil
			}
		}
		checkCold(t, "final", eng)
	})
}

// fuzzRouter returns the fuzz targets' topology and a route generator
// drawing from r: cross-leaf and local shortest paths on a small
// feed-forward Clos, or on a ring of six switches walks of random
// direction and length from the source's switch to the destination's,
// so resource cycles come and go.
func fuzzRouter(t *testing.T, ring bool, r *rand.Rand) (*network.Topology, func() []network.NodeID) {
	t.Helper()
	var (
		topo  *network.Topology
		hosts []network.NodeID
		err   error
	)
	if ring {
		topo, hosts, err = network.Ring(6, 2)
	} else {
		topo, hosts, err = network.ClosTenant(2, 3, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	return topo, func() []network.NodeID {
		for {
			src, dst := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			if !ring {
				rt, err := topo.Route(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				return rt
			}
			var s, d int
			fmt.Sscanf(string(src), "h%d_", &s)
			fmt.Sscanf(string(dst), "h%d_", &d)
			dir := 1
			if r.Intn(2) == 0 {
				dir = -1
			}
			rt := []network.NodeID{src}
			for at := s; ; at = (at + dir + 6) % 6 {
				rt = append(rt, network.NodeID(fmt.Sprintf("sw%d", at)))
				if at == d {
					break
				}
			}
			return append(rt, dst)
		}
	}
}

// bigClosure builds a converged engine holding one feed-forward
// interference closure of n cross-leaf VoIP flows on a 4-spine, 8-leaf
// Clos — the shape of the clos-cross benchmark workload.
func bigClosure(t *testing.T, n int) *Engine {
	t.Helper()
	topo, hosts, err := network.ClosTenant(4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for k := 0; k < n; k++ {
		src, dst := r.Intn(64), r.Intn(64)
		if src/8 == dst/8 {
			dst = (dst + 8) % 64 // cross-leaf
		}
		route, err := topo.Route(hosts[src], hosts[dst])
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("f%d", k)
		fs := &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: network.Priority(r.Intn(3)),
		}
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Analyze()
	if err != nil || !res.Schedulable() {
		t.Fatalf("fixture not schedulable (err %v)", err)
	}
	nw := eng.Network()
	if nw.NumClosures() != 1 || !nw.PipelinesAcyclic() {
		t.Fatalf("fixture: %d closures, acyclic %v", nw.NumClosures(), nw.PipelinesAcyclic())
	}
	return eng
}

// departureAllocBudget caps one warm departure plus the Converge in the
// 240-flow closure of bigClosure. What remains is two allocations per
// re-analysed flow (its frame results and their stage arena, which
// become the published header) and a constant few for the worklist; the
// departed flow's closure is never collected into a map, and a flow the
// stage memo settles entirely is skipped without either. Measured 505
// on the reference fixture (561 before the stage memo); the cold-reset
// path it replaced (closure map, seed map, full re-ascent of the
// closure) measured 953.
const departureAllocBudget = 580

// TestDepartureAllocs pins the allocation count of a departure and the
// Converge that settles it, on a ~200-flow feed-forward closure.
func TestDepartureAllocs(t *testing.T) {
	eng := bigClosure(t, 240)
	depart := func() {
		if err := eng.RemoveFlow(eng.Network().NumFlows() / 2); err != nil {
			t.Fatal(err)
		}
		if !eng.descending {
			t.Fatal("departure did not descend warm")
		}
		eng.Converge()
	}
	allocs := testing.AllocsPerRun(20, depart)
	t.Logf("departure + Converge in a %d-flow closure: %.0f allocs", eng.Network().NumFlows(), allocs)
	if allocs > departureAllocBudget {
		t.Fatalf("departure + Converge allocates %.0f, budget %d", allocs, departureAllocBudget)
	}
	checkCold(t, "after departures", eng)
}
