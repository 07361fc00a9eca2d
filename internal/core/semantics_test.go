package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gmfnet/internal/ether"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// TestIngressModeDifference pins the F4 reconstruction: for a
// multi-fragment frame, ModeSound charges one CIRC slot per fragment at
// the ingress stage while ModePaper charges a single CIRC.
func TestIngressModeDifference(t *testing.T) {
	payload := int64(3*11840 - 64) // exactly 3 fragments
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", payload, 100*ms, 500*ms, 0),
		Route: []network.NodeID{"h1", "s", "h2"},
	}
	circ := units.Time(2) * 3700 * units.Nanosecond // 2 interfaces

	sound := analyze(t, oneSwitchNet(t, fs), Config{Mode: ModeSound})
	paper := analyze(t, oneSwitchNet(t, fs), Config{Mode: ModePaper})
	sIn := sound.Flow(0).Frames[0].Stages[1].Response
	pIn := paper.Flow(0).Frames[0].Stages[1].Response
	if sIn != 3*circ {
		t.Errorf("sound ingress = %v, want %v", sIn, 3*circ)
	}
	if pIn != circ {
		t.Errorf("paper ingress = %v, want %v", pIn, circ)
	}
}

// TestEgressBlockingFromLowerPriority: a lower-priority flow on the same
// output contributes exactly the MFT blocking term — the high-priority
// egress bound must not otherwise grow.
func TestEgressBlockingFromLowerPriority(t *testing.T) {
	hi := &network.FlowSpec{
		Flow:     oneFrameFlow("hi", fullFramePayload, 100*ms, 500*ms, 0),
		Route:    []network.NodeID{"h1", "s", "h2"},
		Priority: 5,
	}
	alone := analyze(t, threeHostSwitchNet(t, hi), Config{Mode: ModeSound})
	lo := &network.FlowSpec{
		Flow:     oneFrameFlow("lo", fullFramePayload, 100*ms, 500*ms, 0),
		Route:    []network.NodeID{"h3", "s", "h2"},
		Priority: 1,
	}
	crowded := analyze(t, threeHostSwitchNet(t, hi, lo), Config{Mode: ModeSound})

	// The egress stage (index 2) already contains MFT blocking even when
	// alone (eq. 30 adds it unconditionally), so the lower-priority flow
	// adds nothing there.
	aEg := alone.Flow(0).Frames[0].Stages[2].Response
	cEg := crowded.Flow(0).Frames[0].Stages[2].Response
	if cEg != aEg {
		t.Errorf("egress bound changed by lower-priority flow: %v -> %v", aEg, cEg)
	}
	// And the end-to-end bound is unchanged too: lo shares no other
	// resource with hi.
	if alone.Flow(0).Frames[0].Response != crowded.Flow(0).Frames[0].Response {
		t.Error("lower-priority cross flow changed the end-to-end bound")
	}
}

// TestEqualPriorityInterferesAtEgress: equal priority counts as
// interference per eq. (2)'s >=.
func TestEqualPriorityInterferesAtEgress(t *testing.T) {
	mk := func(prioB network.Priority) units.Time {
		a := &network.FlowSpec{
			Flow:     oneFrameFlow("a", fullFramePayload, 100*ms, 500*ms, 0),
			Route:    []network.NodeID{"h1", "s", "h2"},
			Priority: 3,
		}
		b := &network.FlowSpec{
			Flow:     oneFrameFlow("b", fullFramePayload, 100*ms, 500*ms, 0),
			Route:    []network.NodeID{"h3", "s", "h2"},
			Priority: prioB,
		}
		res := analyze(t, threeHostSwitchNet(t, a, b), Config{})
		return res.Flow(0).Frames[0].Stages[2].Response
	}
	low := mk(1)
	equal := mk(3)
	if equal <= low {
		t.Fatalf("equal-priority egress bound %v not above lower-priority %v", equal, low)
	}
}

// TestBoundMonotoneInPayload: growing any payload must not shrink any
// bound.
func TestBoundMonotoneInPayload(t *testing.T) {
	f := func(seed int64, extraRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		flow := trace.Random("r", rng, trace.RandomOptions{
			MaxPayloadBytes: 10000, DeadlineFactor: 5,
		})
		mkRes := func(fl *network.FlowSpec) (units.Time, bool) {
			topo := network.MustFigure1(network.Figure1Options{Rate: 100 * units.Mbps})
			nw := network.New(topo)
			if _, err := nw.AddFlow(fl); err != nil {
				return 0, false
			}
			an, err := NewAnalyzer(nw, Config{})
			if err != nil {
				return 0, false
			}
			res, err := an.Analyze()
			if err != nil || !res.Converged {
				return 0, false
			}
			return res.Flow(0).MaxResponse(), true
		}
		base, baseOK := mkRes(&network.FlowSpec{Flow: flow, Route: []network.NodeID{"0", "4", "6", "3"}})
		bigger := flow.Clone()
		bigger.Frames[0].PayloadBits += int64(extraRaw) * 64
		grown, grownOK := mkRes(&network.FlowSpec{Flow: bigger, Route: []network.NodeID{"0", "4", "6", "3"}})
		if !baseOK {
			return true // base infeasible: nothing to compare
		}
		if !grownOK {
			return true // growing load made it infeasible: consistent
		}
		return grown >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundMonotoneInCrossJitter: inflating an interfering flow's source
// jitter must not shrink the analysed flow's bound.
func TestBoundMonotoneInCrossJitter(t *testing.T) {
	mk := func(jit units.Time) units.Time {
		topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
		nw := network.New(topo)
		if _, err := nw.AddFlow(&network.FlowSpec{
			Flow:     oneFrameFlow("main", fullFramePayload, 100*ms, 500*ms, 0),
			Route:    []network.NodeID{"0", "4", "6", "3"},
			Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.AddFlow(&network.FlowSpec{
			Flow:     oneFrameFlow("cross", fullFramePayload, 100*ms, 500*ms, jit),
			Route:    []network.NodeID{"1", "4", "6", "3"},
			Priority: 2,
		}); err != nil {
			t.Fatal(err)
		}
		res := analyze(t, nw, Config{})
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res.Flow(0).Frames[0].Response
	}
	small := mk(0)
	big := mk(20 * ms)
	if big < small {
		t.Fatalf("cross jitter 20ms shrank bound: %v -> %v", small, big)
	}
}

// TestFasterLinksNeverHurt: increasing every link rate must not increase
// any bound.
func TestFasterLinksNeverHurt(t *testing.T) {
	mk := func(rate units.BitRate) units.Time {
		topo := network.MustFigure1(network.Figure1Options{Rate: rate})
		nw := network.New(topo)
		if _, err := nw.AddFlow(&network.FlowSpec{
			Flow:     mpegLike("v"),
			Route:    []network.NodeID{"0", "4", "6", "3"},
			Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
		res := analyze(t, nw, Config{})
		return res.Flow(0).MaxResponse()
	}
	slow := mk(10 * units.Mbps)
	fast := mk(100 * units.Mbps)
	if fast >= slow {
		t.Fatalf("10x faster links did not reduce the bound: %v vs %v", fast, slow)
	}
}

// TestDemandCacheReuse: the analyzer must build each (flow, rate) demand
// once per jitter state, in the flow's entry.
func TestDemandCacheReuse(t *testing.T) {
	topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
	nw := network.New(topo)
	if _, err := nw.AddFlow(&network.FlowSpec{
		Flow:  mpegLike("v"),
		Route: []network.NodeID{"0", "4", "6", "3"},
	}); err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	js := newJitterState(nw, false)
	d1 := an.demand(js, 0, 10*units.Mbps)
	d2 := an.demand(js, 0, 10*units.Mbps)
	if d1 != d2 {
		t.Fatal("demand cache missed")
	}
	d3 := an.demand(js, 0, 100*units.Mbps)
	if d3 == d1 {
		t.Fatal("different rates shared a demand")
	}
	// The cached demand matches a fresh computation.
	fresh, err := ether.DemandFor(nw.Flow(0).Flow, 10*units.Mbps, false)
	if err != nil {
		t.Fatal(err)
	}
	if d1.CSUM() != fresh.CSUM() || d1.NSUM() != fresh.NSUM() {
		t.Fatal("cached demand differs from fresh computation")
	}
}
