package gmfnet_test

import (
	"testing"

	"gmfnet"
)

func TestQuickstartFlow(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 100 * gmfnet.Mbps}))
	idx := sys.MustAddFlow(&gmfnet.FlowSpec{
		Flow:     gmfnet.MPEGIBBPBBPBB("video", gmfnet.MPEGOptions{Deadline: 300 * gmfnet.Millisecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 2,
	})
	if idx != 0 {
		t.Fatalf("index = %d", idx)
	}
	res, err := sys.Analyze(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable() {
		t.Fatal("single video flow on 100 Mbit/s should be schedulable")
	}
	obs, err := sys.Simulate(gmfnet.SimConfig{Duration: gmfnet.Second})
	if err != nil {
		t.Fatal(err)
	}
	for k := range obs.Flows[0].PerFrame {
		if obs.Flows[0].PerFrame[k].MaxResponse > res.Flow(0).Frames[k].Response {
			t.Fatalf("frame %d: simulation exceeded bound", k)
		}
	}
}

func TestSystemAdmissionAndComparison(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 10 * gmfnet.Mbps}))
	ctl, err := sys.NewAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctl.Request(&gmfnet.FlowSpec{
		Flow:     gmfnet.VoIP("call", gmfnet.VoIPOptions{Deadline: 100 * gmfnet.Millisecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatal("voip call rejected on an idle network")
	}
	// The controller only reads the system's network; compare the
	// models over its residents.
	residents := ctl.Residents().Flows()
	if len(residents) != 1 || ctl.NumResidents() != 1 {
		t.Fatalf("want the call alone resident, got %d flows", len(residents))
	}
	admitted := gmfnet.NewSystem(sys.Network().Topo)
	admitted.MustAddFlow(residents[0])
	cmp, err := admitted.CompareModels(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.GMF.Schedulable() {
		t.Fatal("GMF verdict should hold after admission")
	}
}

func TestAssignPrioritiesDMThroughFacade(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{}))
	sys.MustAddFlow(&gmfnet.FlowSpec{
		Flow:  gmfnet.VoIP("tight", gmfnet.VoIPOptions{Deadline: 10 * gmfnet.Millisecond}),
		Route: []gmfnet.NodeID{"0", "4", "6", "3"},
	})
	sys.MustAddFlow(&gmfnet.FlowSpec{
		Flow:  gmfnet.CBRVideo("loose", 1000, 50*gmfnet.Millisecond, 500*gmfnet.Millisecond),
		Route: []gmfnet.NodeID{"1", "4", "6", "3"},
	})
	sys.AssignPrioritiesDM()
	if sys.Network().Flow(0).Priority <= sys.Network().Flow(1).Priority {
		t.Fatal("deadline-monotonic priorities not assigned")
	}
}

// TestEngineMatchesColdThroughFacade: the warm engine and the cold
// referee analysis, both reached through the facade, agree.
func TestEngineMatchesColdThroughFacade(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 100 * gmfnet.Mbps}))
	for i, src := range []gmfnet.NodeID{"0", "1", "2"} {
		sys.MustAddFlow(&gmfnet.FlowSpec{
			Flow:     gmfnet.MPEGIBBPBBPBB(string(src), gmfnet.MPEGOptions{Deadline: 300 * gmfnet.Millisecond}),
			Route:    mustRoute(t, sys, src, "3"),
			Priority: gmfnet.Priority(i),
		})
	}
	cold, err := sys.Analyze(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.NewEngine(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Schedulable() != warm.Schedulable() {
		t.Fatal("engine and cold verdicts differ")
	}
	for i := range cold.Flows {
		if cold.Flows[i].MaxResponse() != warm.Flows[i].MaxResponse() {
			t.Fatalf("flow %d: bounds differ", i)
		}
	}
}

func mustRoute(t *testing.T, sys *gmfnet.System, src, dst gmfnet.NodeID) []gmfnet.NodeID {
	t.Helper()
	r, err := sys.Network().Topo.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMustAddFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid flow did not panic")
		}
	}()
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{}))
	sys.MustAddFlow(&gmfnet.FlowSpec{
		Flow:  gmfnet.VoIP("bad", gmfnet.VoIPOptions{}),
		Route: []gmfnet.NodeID{"0", "5", "3"},
	})
}
