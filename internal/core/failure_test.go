package core

import (
	"errors"
	"strings"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// TestDivergenceOnTinyMaxBusy: with an absurdly small busy-period cap the
// analysis must fail with a DivergenceError instead of looping or
// returning an optimistic bound.
func TestDivergenceOnTinyMaxBusy(t *testing.T) {
	// Two 6.2 ms frames share the link: the busy period grows to ~12.3 ms,
	// beyond the 8 ms cap.
	mk := func(name string) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:  oneFrameFlow(name, 5*11840-64, 100*ms, 100*ms, 0),
			Route: []network.NodeID{"h1", "h2"},
		}
	}
	nw := directLinkNet(t, mk("a"), mk("b"))
	an, err := NewAnalyzer(nw, Config{MaxBusy: 8 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable() {
		t.Fatal("capped analysis reported schedulable")
	}
	var de *DivergenceError
	if !errors.As(res.Flow(0).Err, &de) {
		t.Fatalf("error = %v, want DivergenceError", res.Flow(0).Err)
	}
	if de.Flow != "a" || de.Frame != 0 {
		t.Fatalf("divergence details: %+v", de)
	}
	if !strings.Contains(de.Error(), "diverged") {
		t.Fatalf("error text %q", de.Error())
	}
}

// TestFixpointIterationCap: a pathological fixpoint function must stop at
// MaxFixpointIter.
func TestFixpointIterationCap(t *testing.T) {
	nw := directLinkNet(t, &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "h2"},
	})
	an, err := NewAnalyzer(nw, Config{MaxFixpointIter: 3, MaxBusy: units.Hour})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, errFix := an.fixpoint(Resource{}, "x", 0, 1, func(x units.Time) units.Time {
		calls++
		return x + 1 // never converges
	})
	var de *DivergenceError
	if !errors.As(errFix, &de) {
		t.Fatalf("error = %v, want DivergenceError", errFix)
	}
	if calls != 3 {
		t.Fatalf("fixpoint ran %d times, want 3", calls)
	}
}

// TestHolisticIterationCap: forcing MaxHolisticIter to 1 must report
// non-convergence on a scenario that needs 2+ passes, and the verdict must
// be unschedulable (jitters unconfirmed).
func TestHolisticIterationCap(t *testing.T) {
	topo := network.MustFigure1(network.Figure1Options{Rate: 100 * units.Mbps})
	nw := network.New(topo)
	for i, src := range []network.NodeID{"0", "1"} {
		if _, err := nw.AddFlow(&network.FlowSpec{
			Flow:     mpegLike(string(src)),
			Route:    []network.NodeID{src, "4", "6", "3"},
			Priority: network.Priority(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	an, err := NewAnalyzer(nw, Config{MaxHolisticIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("one pass cannot confirm the fixpoint here")
	}
	if res.Schedulable() {
		t.Fatal("unconverged result must not be schedulable")
	}
}

// TestErrNoConvergence pins the typed abandonment signal: exhausting
// MaxHolisticIter yields Converged == false plus a NoConvergence record
// carrying a positive residual — with a nil error from Analyze, since
// cap exhaustion is a verdict, not a failure (the batch fallback in
// admission depends on that; see Controller.RequestBatch).
func TestErrNoConvergence(t *testing.T) {
	topo, specs := deepChainSetup(t)
	eng, err := NewEngine(network.New(topo), Config{MaxHolisticIter: 2})
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
	if res.Converged || res.Schedulable() {
		t.Fatalf("cap-starved analysis converged (iterations %d)", res.Iterations)
	}
	nc := res.NoConvergence
	if nc == nil {
		t.Fatal("Result.NoConvergence is nil after cap exhaustion")
	}
	if nc.Iterations != 2 || nc.Residual <= 0 || nc.Pending <= 0 {
		t.Fatalf("NoConvergence = %+v, want iterations 2 and positive residual/pending", nc)
	}
	if nc.Error() == "" {
		t.Fatal("NoConvergence.Error() empty")
	}
	v, err := eng.AnalyzeView()
	if err != nil {
		t.Fatal(err)
	}
	if v.NoConvergence() == nil {
		t.Fatal("ResultView.NoConvergence() nil after cap exhaustion")
	}
	if mat := v.Materialize(); mat.NoConvergence == nil {
		t.Fatal("materialized Result lost NoConvergence")
	}
	// A converged analysis clears the signal.
	eng2, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.AddFlow(specs[0]); err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged || res2.NoConvergence != nil {
		t.Fatalf("converged analysis carries NoConvergence %+v", res2.NoConvergence)
	}
	// The one-shot cold Analyzer reports the same signal.
	ref := network.New(topo)
	for _, fs := range specs {
		if _, err := ref.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	an, err := NewAnalyzer(ref, Config{MaxHolisticIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Converged || cold.NoConvergence == nil || cold.NoConvergence.Residual <= 0 {
		t.Fatalf("cold analyzer after cap exhaustion: converged=%v noconv=%+v",
			cold.Converged, cold.NoConvergence)
	}
}

// TestJitterStatePanicsOnUnknownStage guards the internal invariant that
// stages only record jitters at positions on the flow's own pipeline.
func TestJitterStatePanicsOnUnknownStage(t *testing.T) {
	nw := directLinkNet(t, &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "h2"},
	})
	js := newJitterState(nw)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-pipeline stage")
		}
	}()
	js.set(0, 7, 0, ms) // a direct link has exactly one stage
}

// TestFlowResourcesLayout pins the pipeline decomposition used by both the
// analysis and the jitter bookkeeping.
func TestFlowResourcesLayout(t *testing.T) {
	fs := &network.FlowSpec{
		Route: []network.NodeID{"a", "s1", "s2", "b"},
	}
	got := flowResources(fs)
	want := []Resource{
		{Kind: KindLink, Node: "a", To: "s1"},
		{Kind: KindIngress, Node: "s1", To: "a"},
		{Kind: KindLink, Node: "s1", To: "s2"},
		{Kind: KindIngress, Node: "s2", To: "s1"},
		{Kind: KindLink, Node: "s2", To: "b"},
	}
	if len(got) != len(want) {
		t.Fatalf("resources = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resource %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestJitterStateExtraOfUnknown returns zero rather than panicking: the
// interference sums legitimately probe flows whose pipelines do not cross
// the queried resource.
func TestJitterStateExtraOfUnknown(t *testing.T) {
	nw := directLinkNet(t, &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "h2"},
	})
	js := newJitterState(nw)
	if js.extraOf(0, network.ResourceID(9999)) != 0 {
		t.Fatal("unknown resource reads must be zero")
	}
	if js.extraOf(5, network.ResourceID(0)) != 0 {
		t.Fatal("unknown flow reads must be zero")
	}
}

// TestSourceJitterSeedsFirstResource pins the holistic starting point.
func TestSourceJitterSeedsFirstResource(t *testing.T) {
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 3*ms),
		Route: []network.NodeID{"h1", "s", "h2"},
	}
	nw := oneSwitchNet(t, fs)
	js := newJitterState(nw)
	if got := js.get(0, 0, 0); got != 3*ms {
		t.Fatalf("first-resource jitter = %v, want 3ms", got)
	}
	if got := js.get(0, 1, 0); got != 0 {
		t.Fatalf("downstream jitter = %v, want 0", got)
	}
	// The interned pipeline mirrors the stage decomposition, so reads by
	// dense resource id agree with reads by position.
	rid0 := nw.FlowResources(0)[0]
	if got := js.extraOf(0, rid0); got != 3*ms {
		t.Fatalf("extraOf(first hop) = %v, want 3ms", got)
	}
}

// TestFlowResourcesAlignWithNetworkIDs pins the contract between the
// analysis pipeline order and the network's interned resource ids.
func TestFlowResourcesAlignWithNetworkIDs(t *testing.T) {
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "s", "h2"},
	}
	nw := oneSwitchNet(t, fs)
	rids := nw.FlowResources(0)
	resources := flowResources(nw.Flow(0))
	if len(rids) != len(resources) {
		t.Fatalf("pipeline lengths differ: %d ids vs %d resources", len(rids), len(resources))
	}
	for pos, res := range resources {
		var id network.ResourceID
		var ok bool
		if res.Kind == KindIngress {
			id, ok = nw.IngressResourceID(res.Node, res.To)
		} else {
			id, ok = nw.LinkResourceID(res.Node, res.To)
		}
		if !ok || id != rids[pos] {
			t.Fatalf("stage %d (%v): interned id %d (ok=%v), pipeline id %d", pos, res, id, ok, rids[pos])
		}
	}
}
