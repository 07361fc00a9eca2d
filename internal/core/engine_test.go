package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// engineTopo builds two switches, each with three hosts, joined by a
// backbone link. Flows local to one switch never share a resource with
// flows local to the other.
func engineTopo(t *testing.T) *network.Topology {
	t.Helper()
	topo := network.NewTopology()
	for _, sw := range []network.NodeID{"sA", "sB"} {
		if err := topo.AddSwitch(sw, network.DefaultSwitchParams()); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddDuplexLink("sA", "sB", 100*units.Mbps, units.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, h := range []network.NodeID{"a1", "a2", "a3"} {
		if err := topo.AddHost(h); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddDuplexLink(h, "sA", 100*units.Mbps, units.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []network.NodeID{"b1", "b2", "b3"} {
		if err := topo.AddHost(h); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddDuplexLink(h, "sB", 100*units.Mbps, units.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func voipOn(name string, route ...network.NodeID) *network.FlowSpec {
	return &network.FlowSpec{
		Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 50 * units.Millisecond}),
		Route:    route,
		Priority: 2,
	}
}

func TestEngineWarmAnalyzeMatchesCold(t *testing.T) {
	topo := engineTopo(t)
	nw := network.New(topo)
	eng, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []*network.FlowSpec{
		voipOn("v1", "a1", "sA", "a2"),
		voipOn("v2", "a2", "sA", "sB", "b1"),
		voipOn("v3", "b2", "sB", "b3"),
	}
	for _, fs := range specs {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		ref := network.New(topo)
		for j := 0; j <= len(res.Flows)-1; j++ {
			if _, err := ref.AddFlow(nw.Flow(j)); err != nil {
				t.Fatal(err)
			}
		}
		an, err := NewAnalyzer(ref, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := an.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, res, cold)
	}
	// A second Analyze with no changes returns the cached fixpoint.
	again, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Converged || len(again.Flows) != 3 {
		t.Fatalf("cached result: converged=%v flows=%d", again.Converged, len(again.Flows))
	}
}

func TestEngineAffectedSetIsLocal(t *testing.T) {
	topo := engineTopo(t)
	nw := network.New(topo)
	eng, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Flows 0,1 live on switch A; flow 2 on switch B; flow 3 crosses.
	for _, fs := range []*network.FlowSpec{
		voipOn("a-local1", "a1", "sA", "a2"),
		voipOn("a-local2", "a2", "sA", "a3"),
		voipOn("b-local", "b1", "sB", "b2"),
	} {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	// a-local1 and a-local2 share link sA->a2? No: routes a1->sA->a2 and
	// a2->sA->a3 share no directed link; both share nothing with b-local.
	got := eng.affectedSet([]int{0})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("affectedSet(0) = %v, want [0]", got)
	}
	// A crossing flow couples the two sides it touches.
	if _, err := eng.AddFlow(voipOn("cross", "a1", "sA", "sB", "b2")); err != nil {
		t.Fatal(err)
	}
	got = eng.affectedSet([]int{3})
	// cross shares a1->sA with a-local1 and sB->b2 with b-local.
	want := []int{0, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("affectedSet(cross) = %v, want %v", got, want)
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	topo := engineTopo(t)
	nw := network.New(topo)
	eng, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddFlow(voipOn("base", "a1", "sA", "a2")); err != nil {
		t.Fatal(err)
	}
	before, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if _, err := eng.AddFlow(voipOn("tentative", "a1", "sA", "a3")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if nw.NumFlows() != 1 {
		t.Fatalf("NumFlows after restore = %d, want 1", nw.NumFlows())
	}
	after, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, after, before)

	// A window may remove a flow it added: restoring afterwards lands on
	// the snapshot's exact bounds.
	snap2 := eng.Snapshot()
	if _, err := eng.AddFlow(voipOn("probe", "a1", "sA", "a3")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveFlow(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(snap2); err != nil {
		t.Fatalf("restore after an in-window removal: %v", err)
	}
	if nw.NumFlows() != 1 || nw.Flow(0).Flow.Name != "base" {
		t.Fatalf("flow set after restore: %d flows", nw.NumFlows())
	}
	roundTrip, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, roundTrip, before)
}

// TestAnalyzeDeltaCoversPendingDirtyFlows guards against a converged
// delta pass marking the engine valid while a freshly added (and never
// analysed) flow still has placeholder results: every pending flow must
// be folded into the pass, even one no interference path leads to.
func TestAnalyzeDeltaCoversPendingDirtyFlows(t *testing.T) {
	topo := engineTopo(t)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddFlow(voipOn("a-side", "a1", "sA", "a2")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	// b-side is on a disjoint switch: interference propagation from
	// a-side would not reach it.
	if _, err := eng.AddFlow(voipOn("b-side", "b1", "sB", "b2")); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(res.Flows))
	}
	if len(res.Flows[1].Frames) == 0 || res.Flows[1].Frames[0].Response == 0 {
		t.Fatalf("pending flow %q was not analysed: %+v", res.Flows[1].Name, res.Flows[1])
	}
	// And the cached follow-up must agree with a cold analysis.
	again, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(eng.Network(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, again, cold)
}

func TestEngineRemoveFlowErrors(t *testing.T) {
	eng, err := NewEngine(network.New(engineTopo(t)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveFlow(0); err == nil {
		t.Fatal("removing from empty engine succeeded")
	}
}

// TestEngineReplayEquivalence is the randomized property test: a replayed
// request/departure sequence through the incremental engine must reach
// exactly the verdicts and bounds of a cold analysis, after every single
// operation.
func TestEngineReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo, hosts := randomEngineTopo(t, r)
			nw := network.New(topo)
			eng, err := NewEngine(nw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var live []*network.FlowSpec
			for op := 0; op < 14; op++ {
				if len(live) > 0 && r.Float64() < 0.3 {
					i := r.Intn(len(live))
					if err := eng.RemoveFlow(i); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
				} else {
					fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("f%d-%d", seed, op))
					if _, err := eng.AddFlow(fs); err != nil {
						t.Fatal(err)
					}
					live = append(live, fs)
				}
				engRes, err := eng.Analyze()
				if err != nil {
					t.Fatal(err)
				}
				ref := network.New(topo)
				for _, fs := range live {
					if _, err := ref.AddFlow(fs); err != nil {
						t.Fatal(err)
					}
				}
				seq, err := NewAnalyzer(ref, Config{})
				if err != nil {
					t.Fatal(err)
				}
				cold, err := seq.Analyze()
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, engRes, cold)
			}
		})
	}
}

// deepChainSetup builds the deepest-converging closure we know: a ring
// of software switches joined by 100 Mbit/s links, and video flows whose
// three-hop routes overlap like shingles all the way around. The shingling closes a directed cycle in the interference
// graph — each flow's response feeds the entry jitter of the next flow
// around the ring — so the holistic jitter assignment circulates in
// near-constant laps, gaining roughly one more preemption window per
// sweep until the busy periods saturate. That staircase is the worst
// case for the Kleene ascent: iterations proportional to the final
// jitter over the per-lap increment.
func deepChainSetup(t *testing.T) (*network.Topology, []*network.FlowSpec) {
	t.Helper()
	const switches = 12
	topo := network.NewTopology()
	for s := 0; s < switches; s++ {
		sw := network.NodeID(fmt.Sprintf("sw%d", s))
		if err := topo.AddSwitch(sw, network.DefaultSwitchParams()); err != nil {
			t.Fatal(err)
		}
		if s > 0 {
			prev := network.NodeID(fmt.Sprintf("sw%d", s-1))
			if err := topo.AddDuplexLink(prev, sw, 100*units.Mbps, units.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		for h := 0; h < 2; h++ {
			id := network.NodeID(fmt.Sprintf("h%d_%d", s, h))
			if err := topo.AddHost(id); err != nil {
				t.Fatal(err)
			}
			if err := topo.AddDuplexLink(id, sw, 100*units.Mbps, units.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := network.NodeID(fmt.Sprintf("sw%d", switches-1))
	if err := topo.AddDuplexLink(last, "sw0", 100*units.Mbps, units.Microsecond); err != nil {
		t.Fatal(err)
	}
	var specs []*network.FlowSpec
	for s := 0; s < switches; s++ {
		src := network.NodeID(fmt.Sprintf("h%d_0", s))
		dst := network.NodeID(fmt.Sprintf("h%d_1", (s+switches-3)%switches))
		route, err := topo.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, &network.FlowSpec{
			Flow: trace.CBRVideo(fmt.Sprintf("video%d", s), 65000,
				30*units.Millisecond, 2*units.Second),
			Route:    route,
			Priority: 1,
		})
	}
	return topo, specs
}

// TestDeepChainIterations records how many sweeps the deepest closure we
// know needs, so neither a broken worklist nor a divergence regression
// can pass silently — and so a proposal to speed the ascent up again has
// a number to beat. Production-shaped closures take 2-5 sweeps (bench/
// core.sweeps_max); this synthetic ring is the outlier.
func TestDeepChainIterations(t *testing.T) {
	topo, specs := deepChainSetup(t)
	nw := network.New(topo)
	eng, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range specs {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("deep chain did not converge (stats %+v)", res.Stats)
	}
	t.Logf("sweeps=%d", res.Iterations)
	// The chain needs roughly one sweep per hop of the longest ripple;
	// the band is wide enough to absorb formula tweaks but tight enough
	// to catch a broken worklist (1-2 iterations) or a divergence
	// regression (hundreds).
	if res.Iterations < 6 || res.Iterations > 64 {
		t.Fatalf("iteration count %d outside the pinned band [6, 64]", res.Iterations)
	}
	// Every worklist round is one sweep of the ascent.
	if st := res.Stats; st.WorklistRounds != st.Iterations || st.Iterations != res.Iterations {
		t.Fatalf("stats %+v disagree with %d iterations", st, res.Iterations)
	}
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, res, cold)
}

// randomEngineTopo chains 2-4 switches with 2-3 hosts each.
func randomEngineTopo(t *testing.T, r *rand.Rand) (*network.Topology, []network.NodeID) {
	t.Helper()
	topo := network.NewTopology()
	nsw := 2 + r.Intn(3)
	backbone := []units.BitRate{100 * units.Mbps, units.Gbps}[r.Intn(2)]
	for s := 0; s < nsw; s++ {
		id := network.NodeID(fmt.Sprintf("s%d", s))
		if err := topo.AddSwitch(id, network.DefaultSwitchParams()); err != nil {
			t.Fatal(err)
		}
		if s > 0 {
			prev := network.NodeID(fmt.Sprintf("s%d", s-1))
			if err := topo.AddDuplexLink(prev, id, backbone, units.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	var hosts []network.NodeID
	for s := 0; s < nsw; s++ {
		nh := 2 + r.Intn(2)
		for h := 0; h < nh; h++ {
			id := network.NodeID(fmt.Sprintf("h%d_%d", s, h))
			rate := []units.BitRate{10 * units.Mbps, 100 * units.Mbps}[r.Intn(2)]
			if err := topo.AddHost(id); err != nil {
				t.Fatal(err)
			}
			sw := network.NodeID(fmt.Sprintf("s%d", s))
			if err := topo.AddDuplexLink(id, sw, rate, units.Microsecond); err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, id)
		}
	}
	return topo, hosts
}

// randomFlowSpec draws a VoIP, CBR or MPEG flow between two random hosts;
// some draws are deliberately heavy so that unschedulable configurations
// occur and the error paths are exercised too.
func randomFlowSpec(t *testing.T, r *rand.Rand, topo *network.Topology, hosts []network.NodeID, name string) *network.FlowSpec {
	t.Helper()
	for {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		if src == dst {
			continue
		}
		route, err := topo.Route(src, dst)
		if err != nil {
			continue
		}
		var fs *network.FlowSpec
		switch r.Intn(4) {
		case 0:
			fs = &network.FlowSpec{
				Flow: trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			}
		case 1:
			fs = &network.FlowSpec{
				Flow: trace.CBRVideo(name, 2000+r.Int63n(8000),
					units.Time(20+r.Intn(30))*units.Millisecond, 200*units.Millisecond),
			}
		case 2:
			fs = &network.FlowSpec{
				Flow: trace.MPEGIBBPBBPBB(name, trace.MPEGOptions{Deadline: 300 * units.Millisecond}),
			}
		default:
			// Heavy: ~8-24 Mbit/s, overloads a 10 Mbit/s edge link.
			fs = &network.FlowSpec{
				Flow: trace.CBRVideo(name, 50000+r.Int63n(100000),
					50*units.Millisecond, 250*units.Millisecond),
			}
		}
		fs.Route = route
		fs.Priority = network.Priority(r.Intn(4))
		fs.RTP = r.Intn(2) == 0
		return fs
	}
}

// compareResults asserts two analyses agree: same verdict always, and
// identical per-frame bounds whenever both converged.
func compareResults(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Schedulable() != want.Schedulable() {
		t.Fatalf("verdicts differ: got %v, want %v", got.Schedulable(), want.Schedulable())
	}
	if got.Converged != want.Converged {
		t.Fatalf("convergence differs: got %v, want %v", got.Converged, want.Converged)
	}
	if !got.Converged {
		return
	}
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(got.Flows), len(want.Flows))
	}
	for i := range want.Flows {
		g, w := &got.Flows[i], &want.Flows[i]
		if g.Name != w.Name {
			t.Fatalf("flow %d name %q vs %q", i, g.Name, w.Name)
		}
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("flow %d err %v vs %v", i, g.Err, w.Err)
		}
		if len(g.Frames) != len(w.Frames) {
			t.Fatalf("flow %d frame counts %d vs %d", i, len(g.Frames), len(w.Frames))
		}
		for k := range w.Frames {
			if g.Frames[k].Response != w.Frames[k].Response {
				t.Fatalf("flow %d frame %d bound %v vs %v",
					i, k, g.Frames[k].Response, w.Frames[k].Response)
			}
			if g.Frames[k].Deadline != w.Frames[k].Deadline {
				t.Fatalf("flow %d frame %d deadline differs", i, k)
			}
		}
	}
}

// TestLinkAddedUnderAdmittedRoute adds a link to a switch that admitted
// routes cross, so its CIRC rises under resident flows, and checks that
// the cold Analyzer and a cold-reset Engine then give exactly the bounds
// of a network built fresh on the grown topology.
func TestLinkAddedUnderAdmittedRoute(t *testing.T) {
	specs := []*network.FlowSpec{
		voipOn("v1", "a1", "sA", "a2"),
		voipOn("v2", "a2", "sA", "sB", "b1"),
		voipOn("v3", "b2", "sB", "b3"),
	}
	grow := func(topo *network.Topology) {
		t.Helper()
		if err := topo.AddHost("a4"); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddDuplexLink("a4", "sA", 100*units.Mbps, units.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	topo := engineTopo(t)
	nw := network.New(topo)
	eng, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range specs {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}

	grow(topo)
	freshTopo := engineTopo(t)
	grow(freshTopo)
	fresh := network.New(freshTopo)
	for _, fs := range specs {
		if _, err := fresh.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	want := analyze(t, fresh, Config{})
	if !want.Schedulable() {
		t.Fatal("fixture not schedulable after the link was added")
	}
	if !(want.Flows[0].MaxResponse() > before.Flows[0].MaxResponse()) {
		t.Fatalf("flow v1 crosses sA, whose CIRC rose: bound %v, before %v", want.Flows[0].MaxResponse(), before.Flows[0].MaxResponse())
	}

	cold, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, cold, want)

	// A topology change is out of band for a warm engine: a cold reset
	// re-derives every jitter and voids the stage memo.
	eng.valid = false
	got, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, got, want)
	rebuilt, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = rebuilt.Analyze(); err != nil {
		t.Fatal(err)
	}
	compareResults(t, got, want)
}
