package core

import (
	"errors"
	"strings"
	"testing"

	"gmfnet/internal/ether"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

const (
	ms = units.Millisecond
	us = units.Microsecond
)

// oneFrameFlow builds a single-frame flow with the given payload so that
// stage bounds are hand-computable.
func oneFrameFlow(name string, payloadBits int64, sep, dl, jit units.Time) *gmf.Flow {
	return &gmf.Flow{Name: name, Frames: []gmf.Frame{{
		MinSep: sep, Deadline: dl, Jitter: jit, PayloadBits: payloadBits,
	}}}
}

// directLinkNet is two hosts joined by a 10 Mbit/s link.
func directLinkNet(t *testing.T, flows ...*network.FlowSpec) *network.Network {
	t.Helper()
	topo := network.NewTopology()
	mustOK(t, topo.AddHost("h1"))
	mustOK(t, topo.AddHost("h2"))
	mustOK(t, topo.AddDuplexLink("h1", "h2", 10*units.Mbps, 0))
	nw := network.New(topo)
	for _, fs := range flows {
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// oneSwitchNet is h1 - s - h2 with 10 Mbit/s links and Click parameters.
func oneSwitchNet(t *testing.T, flows ...*network.FlowSpec) *network.Network {
	t.Helper()
	topo := network.NewTopology()
	mustOK(t, topo.AddHost("h1"))
	mustOK(t, topo.AddHost("h2"))
	mustOK(t, topo.AddSwitch("s", network.DefaultSwitchParams()))
	mustOK(t, topo.AddDuplexLink("h1", "s", 10*units.Mbps, 0))
	mustOK(t, topo.AddDuplexLink("s", "h2", 10*units.Mbps, 0))
	nw := network.New(topo)
	for _, fs := range flows {
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

func analyze(t *testing.T, nw *network.Network, cfg Config) *Result {
	t.Helper()
	an, err := NewAnalyzer(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAnalyzerReuseAfterFlowChange pins that an Analyzer keeps no
// per-flow state between Analyze calls: after its network's flow set
// changes — a departure shifts indices, an arrival takes a freed one —
// a reused analyzer answers exactly as a fresh one over the same
// network.
func TestAnalyzerReuseAfterFlowChange(t *testing.T) {
	route := []network.NodeID{"h1", "s", "h2"}
	spec := func(name string, payloadBits int64) *network.FlowSpec {
		return &network.FlowSpec{Flow: oneFrameFlow(name, payloadBits, 10*ms, 50*ms, 0), Route: route}
	}
	nw := oneSwitchNet(t, spec("heavy", 56_000), spec("light", 4_000))
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(ctx string) {
		t.Helper()
		got, err := an.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		want := analyze(t, nw, Config{})
		if !want.Schedulable() {
			t.Fatalf("%s: fixture not schedulable", ctx)
		}
		compareResults(t, got, want)
	}
	check("initial")
	nw.RemoveFlow(0)
	check("after the departure of flow 0")
	if _, err := nw.AddFlow(spec("medium", 20_000)); err != nil {
		t.Fatal(err)
	}
	check("after an arrival")
}

// fullFramePayload is the payload whose UDP datagram is exactly one
// maximum Ethernet frame: 11840 data bits minus the 64-bit UDP header.
const fullFramePayload = 11840 - 64

// c1 is that datagram's transmission time at 10 Mbit/s: 12304 bits /
// 10 Mbit/s = 1230.4 µs.
var c1 = units.TxTime(12304, 10*units.Mbps)

func TestNewAnalyzerErrors(t *testing.T) {
	if _, err := NewAnalyzer(nil, Config{}); err == nil {
		t.Error("nil network accepted")
	}
}

func TestSingleFlowDirectLink(t *testing.T) {
	// One flow, no interference: the bound is jitter + transmission time.
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "h2"},
	}
	res := analyze(t, directLinkNet(t, fs), Config{})
	if !res.Converged || !res.Schedulable() {
		t.Fatalf("result: converged=%v schedulable=%v", res.Converged, res.Schedulable())
	}
	got := res.Flow(0).Frames[0].Response
	if got != c1 {
		t.Fatalf("response = %v, want %v", got, c1)
	}
	if len(res.Flow(0).Frames[0].Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(res.Flow(0).Frames[0].Stages))
	}
}

func TestSourceJitterAddsToBound(t *testing.T) {
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 2*ms),
		Route: []network.NodeID{"h1", "h2"},
	}
	res := analyze(t, directLinkNet(t, fs), Config{})
	got := res.Flow(0).Frames[0].Response
	if got != 2*ms+c1 {
		t.Fatalf("response = %v, want %v", got, 2*ms+c1)
	}
}

func TestPropagationDelayAdds(t *testing.T) {
	topo := network.NewTopology()
	mustOK(t, topo.AddHost("h1"))
	mustOK(t, topo.AddHost("h2"))
	mustOK(t, topo.AddDuplexLink("h1", "h2", 10*units.Mbps, 5*us))
	nw := network.New(topo)
	if _, err := nw.AddFlow(&network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "h2"},
	}); err != nil {
		t.Fatal(err)
	}
	res := analyze(t, nw, Config{})
	if got := res.Flow(0).Frames[0].Response; got != c1+5*us {
		t.Fatalf("response = %v, want %v", got, c1+5*us)
	}
}

func TestTwoFlowsFirstHopInterfere(t *testing.T) {
	// Two equal flows share the host's work-conserving queue: each one's
	// bound is both transmission times, regardless of priority.
	mk := func(name string) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:  oneFrameFlow(name, fullFramePayload, 100*ms, 100*ms, 0),
			Route: []network.NodeID{"h1", "h2"},
		}
	}
	a, b := mk("a"), mk("b")
	a.Priority = 7 // priority is irrelevant on the first hop
	res := analyze(t, directLinkNet(t, a, b), Config{})
	for i := 0; i < 2; i++ {
		if got := res.Flow(i).Frames[0].Response; got != 2*c1 {
			t.Fatalf("flow %d response = %v, want %v", i, got, 2*c1)
		}
	}
}

func TestOneSwitchPipelineHandComputed(t *testing.T) {
	// h1 - s - h2 with one single-fragment flow. CIRC(s) = 2 × 3.7 µs.
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*ms, 0),
		Route: []network.NodeID{"h1", "s", "h2"},
	}
	circ := units.Time(2) * 3700 * units.Nanosecond
	mft := ether.MFT(10 * units.Mbps)

	res := analyze(t, oneSwitchNet(t, fs), Config{Mode: ModeSound})
	fr := res.Flow(0).Frames[0]
	if len(fr.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(fr.Stages))
	}
	// Stage 1: first hop = C.
	if got := fr.Stages[0].Response; got != c1 {
		t.Errorf("first hop = %v, want %v", got, c1)
	}
	// Stage 2: ingress = one service slot for the single fragment.
	if got := fr.Stages[1].Response; got != circ {
		t.Errorf("ingress = %v, want %v", got, circ)
	}
	// Stage 3: egress = blocking MFT + own transmission + own stride slot.
	wantEgress := mft + c1 + circ
	if got := fr.Stages[2].Response; got != wantEgress {
		t.Errorf("egress = %v, want %v", got, wantEgress)
	}
	want := c1 + circ + wantEgress
	if fr.Response != want {
		t.Errorf("total = %v, want %v", fr.Response, want)
	}

	// ModePaper drops the flow's own stride slot at egress.
	resP := analyze(t, oneSwitchNet(t, fs), Config{Mode: ModePaper})
	frP := resP.Flow(0).Frames[0]
	if got := frP.Stages[2].Response; got != mft+c1 {
		t.Errorf("paper egress = %v, want %v", got, mft+c1)
	}
	if frP.Response >= fr.Response {
		t.Errorf("paper bound %v not below sound bound %v", frP.Response, fr.Response)
	}
}

func TestPaperModeNeverExceedsSound(t *testing.T) {
	flows := []*network.FlowSpec{
		{
			Flow:     mpegLike("v0"),
			Route:    []network.NodeID{"0", "4", "6", "3"},
			Priority: 2,
		},
		{
			Flow:     mpegLike("v1"),
			Route:    []network.NodeID{"1", "4", "6", "3"},
			Priority: 1,
		},
		{
			Flow:     oneFrameFlow("voip", 160*8, 20*ms, 20*ms, 0),
			Route:    []network.NodeID{"2", "5", "6", "3"},
			Priority: 3,
		},
	}
	mkNet := func() *network.Network {
		topo := network.MustFigure1(network.Figure1Options{Rate: 100 * units.Mbps})
		nw := network.New(topo)
		for _, f := range flows {
			if _, err := nw.AddFlow(f); err != nil {
				t.Fatal(err)
			}
		}
		return nw
	}
	sound := analyze(t, mkNet(), Config{Mode: ModeSound})
	paper := analyze(t, mkNet(), Config{Mode: ModePaper})
	if !sound.Converged || !paper.Converged {
		t.Fatalf("convergence: sound=%v paper=%v", sound.Converged, paper.Converged)
	}
	for i := range flows {
		for k := range sound.Flow(i).Frames {
			s := sound.Flow(i).Frames[k].Response
			p := paper.Flow(i).Frames[k].Response
			if p > s {
				t.Errorf("flow %d frame %d: paper %v > sound %v", i, k, p, s)
			}
		}
	}
}

// mpegLike is a 3-frame GMF flow resembling a small GOP.
func mpegLike(name string) *gmf.Flow {
	return &gmf.Flow{Name: name, Frames: []gmf.Frame{
		{MinSep: 30 * ms, Deadline: 150 * ms, Jitter: ms, PayloadBits: 144000},
		{MinSep: 30 * ms, Deadline: 150 * ms, Jitter: ms, PayloadBits: 12000},
		{MinSep: 30 * ms, Deadline: 150 * ms, Jitter: ms, PayloadBits: 48000},
	}}
}

func TestOverloadDetected(t *testing.T) {
	// Two flows each needing ~62% of the link: overload on the first hop.
	mk := func(name string) *network.FlowSpec {
		return &network.FlowSpec{
			// 12304 bits on the wire every 2 ms at 10 Mbit/s = 61.5%.
			Flow:  oneFrameFlow(name, fullFramePayload, 2*ms, 10*ms, 0),
			Route: []network.NodeID{"h1", "h2"},
		}
	}
	res := analyze(t, directLinkNet(t, mk("a"), mk("b")), Config{})
	if res.Schedulable() {
		t.Fatal("overloaded network reported schedulable")
	}
	var oe *OverloadError
	foundErr := false
	for i := range res.Flows {
		if res.Flows[i].Err != nil {
			foundErr = true
			if !errors.As(res.Flows[i].Err, &oe) {
				t.Fatalf("flow %d error %v is not an OverloadError", i, res.Flows[i].Err)
			}
		}
	}
	if !foundErr {
		t.Fatal("no flow carries an overload error")
	}
	if oe.Utilization < 1 {
		t.Errorf("reported utilisation %v < 1", oe.Utilization)
	}
	if !strings.Contains(oe.Error(), "overloaded") {
		t.Errorf("error text: %q", oe.Error())
	}
}

func TestDeadlineMissReported(t *testing.T) {
	// Feasible utilisation but an impossible deadline: the bound exceeds
	// it and the verdict must be unschedulable, without any stage error.
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 100*us, 0), // deadline below C
		Route: []network.NodeID{"h1", "h2"},
	}
	res := analyze(t, directLinkNet(t, fs), Config{})
	if res.Schedulable() {
		t.Fatal("missed deadline reported schedulable")
	}
	fr := res.Flow(0)
	if fr.Err != nil {
		t.Fatalf("unexpected stage error: %v", fr.Err)
	}
	if fr.Frames[0].Meets() {
		t.Fatal("frame reports Meets despite bound above deadline")
	}
}

func TestMoreInterferenceNeverHelps(t *testing.T) {
	// Adding a flow must not decrease any existing flow's bound.
	base := &network.FlowSpec{
		Flow:     mpegLike("v"),
		Route:    []network.NodeID{"0", "4", "6", "3"},
		Priority: 1,
	}
	mkNet := func(extra bool) *Result {
		topo := network.MustFigure1(network.Figure1Options{Rate: 100 * units.Mbps})
		nw := network.New(topo)
		if _, err := nw.AddFlow(base); err != nil {
			t.Fatal(err)
		}
		if extra {
			if _, err := nw.AddFlow(&network.FlowSpec{
				Flow:     mpegLike("x"),
				Route:    []network.NodeID{"1", "4", "6", "3"},
				Priority: 2,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return analyze(t, nw, Config{})
	}
	alone := mkNet(false)
	crowded := mkNet(true)
	for k := range alone.Flow(0).Frames {
		a := alone.Flow(0).Frames[k].Response
		c := crowded.Flow(0).Frames[k].Response
		if c < a {
			t.Errorf("frame %d: bound shrank from %v to %v with added load", k, a, c)
		}
	}
}

func TestHigherPriorityLowersEgressBound(t *testing.T) {
	// On switch egress, the higher-priority flow must have a bound no
	// larger than an equal flow at lower priority.
	mk := func(prioA, prioB network.Priority) (units.Time, units.Time) {
		a := &network.FlowSpec{
			Flow:     oneFrameFlow("a", 100000, 50*ms, 500*ms, 0),
			Route:    []network.NodeID{"h1", "s", "h2"},
			Priority: prioA,
		}
		b := &network.FlowSpec{
			Flow:     oneFrameFlow("b", 100000, 50*ms, 500*ms, 0),
			Route:    []network.NodeID{"h1", "s", "h2"},
			Priority: prioB,
		}
		res := analyze(t, oneSwitchNet(t, a, b), Config{})
		if !res.Converged {
			mk2 := res.Flow(0).Err
			mk3 := res.Flow(1).Err
			t.Fatalf("did not converge: %v %v", mk2, mk3)
		}
		return res.Flow(0).Frames[0].Response, res.Flow(1).Frames[0].Response
	}
	hi, lo := mk(2, 1)
	if hi > lo {
		t.Fatalf("high-priority bound %v above low-priority %v", hi, lo)
	}
	// And the high-priority flow beats its own bound at equal priority.
	eqHi, _ := mk(1, 1)
	if hi > eqHi {
		t.Fatalf("priority 2 bound %v above equal-priority bound %v", hi, eqHi)
	}
}

func TestHolisticConvergesAndIsIdempotent(t *testing.T) {
	topo := network.MustFigure1(network.Figure1Options{Rate: 100 * units.Mbps})
	nw := network.New(topo)
	specs := []*network.FlowSpec{
		{Flow: mpegLike("v0"), Route: []network.NodeID{"0", "4", "6", "3"}, Priority: 1},
		{Flow: mpegLike("v1"), Route: []network.NodeID{"1", "4", "6", "3"}, Priority: 2},
		{Flow: oneFrameFlow("voip", 160*8, 20*ms, 100*ms, 0), Route: []network.NodeID{"2", "5", "6", "7"}, Priority: 3},
	}
	for _, s := range specs {
		if _, err := nw.AddFlow(s); err != nil {
			t.Fatal(err)
		}
	}
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Converged {
		t.Fatal("holistic analysis did not converge")
	}
	if r1.Iterations < 2 {
		t.Fatalf("iterations = %d, want >= 2 (jitters must propagate)", r1.Iterations)
	}
	// Re-running on a fresh analyzer gives identical bounds.
	an2, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := an2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Flows {
		for k := range r1.Flows[i].Frames {
			if r1.Flows[i].Frames[k].Response != r2.Flows[i].Frames[k].Response {
				t.Fatalf("non-deterministic bound for flow %d frame %d", i, k)
			}
		}
	}
}

func TestEmptyNetworkAnalyze(t *testing.T) {
	nw := network.New(network.MustFigure1(network.Figure1Options{}))
	an, err := NewAnalyzer(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Schedulable() {
		t.Fatal("empty network must be trivially schedulable")
	}
}

func TestStageEntryJittersGrowAlongRoute(t *testing.T) {
	fs := &network.FlowSpec{
		Flow:  oneFrameFlow("a", fullFramePayload, 100*ms, 500*ms, ms),
		Route: []network.NodeID{"h1", "s", "h2"},
	}
	res := analyze(t, oneSwitchNet(t, fs), Config{})
	stages := res.Flow(0).Frames[0].Stages
	if stages[0].EntryJitter != ms {
		t.Fatalf("first stage jitter = %v, want source jitter 1ms", stages[0].EntryJitter)
	}
	for i := 1; i < len(stages); i++ {
		want := stages[i-1].EntryJitter + stages[i-1].Response
		if stages[i].EntryJitter != want {
			t.Fatalf("stage %d entry jitter = %v, want %v", i, stages[i].EntryJitter, want)
		}
	}
}

func TestResourceString(t *testing.T) {
	l := Resource{Kind: KindLink, Node: "4", To: "6"}
	if l.String() != "link(4,6)" {
		t.Errorf("link string = %q", l.String())
	}
	in := Resource{Kind: KindIngress, Node: "6", To: "4"}
	if in.String() != "in(6)<-4" {
		t.Errorf("ingress string = %q", in.String())
	}
}

func TestModeString(t *testing.T) {
	if ModeSound.String() != "sound" || ModePaper.String() != "paper" {
		t.Fatal("mode strings wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Fatal("unknown mode string")
	}
}

func TestMultiFrameBusyPeriodCoversSeveralInstances(t *testing.T) {
	// High utilisation forces busy periods spanning several cycles; the
	// analysis must still converge and bound every frame.
	mk := func(name string) *gmf.Flow {
		return &gmf.Flow{Name: name, Frames: []gmf.Frame{
			{MinSep: 4 * ms, Deadline: 200 * ms, Jitter: 0, PayloadBits: 20000},
			{MinSep: 12 * ms, Deadline: 200 * ms, Jitter: 0, PayloadBits: 4000},
		}}
	}
	a := &network.FlowSpec{Flow: mk("a"), Route: []network.NodeID{"h1", "h2"}}
	b := &network.FlowSpec{Flow: mk("b"), Route: []network.NodeID{"h1", "h2"}}
	res := analyze(t, directLinkNet(t, a, b), Config{})
	if !res.Converged {
		t.Fatalf("did not converge: %v / %v", res.Flow(0).Err, res.Flow(1).Err)
	}
	for i := 0; i < 2; i++ {
		for k := range res.Flow(i).Frames {
			if res.Flow(i).Frames[k].Response <= 0 {
				t.Fatalf("flow %d frame %d: non-positive bound", i, k)
			}
		}
	}
}

func TestFlowResultHelpers(t *testing.T) {
	fr := FlowResult{Frames: []FrameResult{
		{Response: 5 * ms, Deadline: 10 * ms},
		{Response: 8 * ms, Deadline: 10 * ms},
	}}
	if !fr.Schedulable() {
		t.Fatal("schedulable flow reported unschedulable")
	}
	if fr.MaxResponse() != 8*ms {
		t.Fatalf("MaxResponse = %v", fr.MaxResponse())
	}
	fr.Frames[1].Response = 12 * ms
	if fr.Schedulable() {
		t.Fatal("missed deadline not detected")
	}
	fr.Err = errors.New("boom")
	if fr.Schedulable() {
		t.Fatal("errored flow reported schedulable")
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyzeFigure1(b *testing.B) {
	topo := network.MustFigure1(network.Figure1Options{Rate: 100 * units.Mbps})
	nw := network.New(topo)
	specs := []*network.FlowSpec{
		{Flow: mpegLike("v0"), Route: []network.NodeID{"0", "4", "6", "3"}, Priority: 1},
		{Flow: mpegLike("v1"), Route: []network.NodeID{"1", "4", "6", "3"}, Priority: 2},
		{Flow: oneFrameFlow("voip", 160*8, 20*ms, 100*ms, 0), Route: []network.NodeID{"2", "5", "6", "7"}, Priority: 3},
	}
	for _, s := range specs {
		if _, err := nw.AddFlow(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := NewAnalyzer(nw, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := an.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}
