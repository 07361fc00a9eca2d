package network

import (
	"testing"

	"gmfnet/internal/gmf"
	"gmfnet/internal/units"
)

func videoFlow(name string) *gmf.Flow {
	return &gmf.Flow{
		Name: name,
		Frames: []gmf.Frame{
			{MinSep: 30 * ms, Deadline: 100 * ms, Jitter: ms, PayloadBits: 144000},
			{MinSep: 30 * ms, Deadline: 100 * ms, Jitter: ms, PayloadBits: 12000},
			{MinSep: 30 * ms, Deadline: 100 * ms, Jitter: ms, PayloadBits: 48000},
		},
	}
}

func testNetwork(t *testing.T) *Network {
	t.Helper()
	topo := MustFigure1(Figure1Options{})
	nw := New(topo)
	// Flow 0: 0 -> 3 via 4,6 at priority 2.
	if _, err := nw.AddFlow(&FlowSpec{
		Flow: videoFlow("v0"), Route: []NodeID{"0", "4", "6", "3"}, Priority: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Flow 1: 1 -> 3 via 4,6 at priority 1.
	if _, err := nw.AddFlow(&FlowSpec{
		Flow: videoFlow("v1"), Route: []NodeID{"1", "4", "6", "3"}, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Flow 2: 2 -> 7 via 5,6 at priority 2.
	if _, err := nw.AddFlow(&FlowSpec{
		Flow: videoFlow("v2"), Route: []NodeID{"2", "5", "6", "7"}, Priority: 2,
	}); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestFlowSpecNavigation(t *testing.T) {
	nw := testNetwork(t)
	fs := nw.Flow(0)
	if fs.Source() != "0" || fs.Destination() != "3" {
		t.Fatalf("endpoints: %s -> %s", fs.Source(), fs.Destination())
	}
	if s, ok := fs.Succ("4"); !ok || s != "6" {
		t.Fatalf("Succ(4) = %v,%v", s, ok)
	}
	if s, ok := fs.Succ("3"); ok {
		t.Fatalf("Succ(dest) = %v, want none", s)
	}
	if p, ok := fs.Prec("4"); !ok || p != "0" {
		t.Fatalf("Prec(4) = %v,%v", p, ok)
	}
	if _, ok := fs.Prec("0"); ok {
		t.Fatal("Prec(source) should not exist")
	}
	if !fs.Uses("4", "6") || fs.Uses("6", "4") || fs.Uses("2", "5") {
		t.Fatal("Uses wrong")
	}
}

func TestAddFlowErrors(t *testing.T) {
	nw := New(MustFigure1(Figure1Options{}))
	if _, err := nw.AddFlow(nil); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := nw.AddFlow(&FlowSpec{Flow: &gmf.Flow{Name: "e"}, Route: []NodeID{"0", "4", "3"}}); err == nil {
		t.Error("invalid flow accepted")
	}
	if _, err := nw.AddFlow(&FlowSpec{Flow: videoFlow("v"), Route: []NodeID{"0", "5", "3"}}); err == nil {
		t.Error("invalid route accepted")
	}
	if _, err := nw.AddFlow(&FlowSpec{Flow: videoFlow("v"), Route: []NodeID{"0", "4", "6", "3"}, Priority: -1}); err == nil {
		t.Error("negative priority accepted")
	}
}

func TestFlowsOn(t *testing.T) {
	nw := testNetwork(t)
	if got := nw.FlowsOn("4", "6"); !equalInts(got, []int{0, 1}) {
		t.Fatalf("FlowsOn(4,6) = %v", got)
	}
	if got := nw.FlowsOn("6", "3"); !equalInts(got, []int{0, 1}) {
		t.Fatalf("FlowsOn(6,3) = %v", got)
	}
	if got := nw.FlowsOn("6", "7"); !equalInts(got, []int{2}) {
		t.Fatalf("FlowsOn(6,7) = %v", got)
	}
	if got := nw.FlowsOn("6", "4"); got != nil {
		t.Fatalf("FlowsOn(6,4) = %v, want empty", got)
	}
}

func TestHEPAndLP(t *testing.T) {
	nw := testNetwork(t)
	// On link 4->6: flow 0 (prio 2) and flow 1 (prio 1).
	if got := nw.HEP(1, "4", "6"); !equalInts(got, []int{0}) {
		t.Fatalf("HEP(1) = %v, want [0]", got)
	}
	if got := nw.HEP(0, "4", "6"); got != nil {
		t.Fatalf("HEP(0) = %v, want empty", got)
	}
	if got := nw.LP(0, "4", "6"); !equalInts(got, []int{1}) {
		t.Fatalf("LP(0) = %v, want [1]", got)
	}
	if got := nw.LP(1, "4", "6"); got != nil {
		t.Fatalf("LP(1) = %v, want empty", got)
	}
}

func TestHEPEqualPriorityCountsBothWays(t *testing.T) {
	nw := testNetwork(t)
	// Add a second priority-2 flow on 0's link.
	if _, err := nw.AddFlow(&FlowSpec{
		Flow: videoFlow("v3"), Route: []NodeID{"1", "4", "6", "3"}, Priority: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if got := nw.HEP(0, "4", "6"); !equalInts(got, []int{3}) {
		t.Fatalf("HEP(0) = %v, want [3]", got)
	}
	if got := nw.HEP(3, "4", "6"); !equalInts(got, []int{0}) {
		t.Fatalf("HEP(3) = %v, want [0]", got)
	}
}

func TestRemoveFlowShiftsIndicesAndIndex(t *testing.T) {
	nw := testNetwork(t)
	// Remove the middle flow: v2 shifts from index 2 to 1.
	nw.RemoveFlow(1)
	if nw.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d, want 2", nw.NumFlows())
	}
	if nw.Flow(0).Flow.Name != "v0" || nw.Flow(1).Flow.Name != "v2" {
		t.Fatalf("order after removal: %q, %q", nw.Flow(0).Flow.Name, nw.Flow(1).Flow.Name)
	}
	if got := nw.FlowsOn("4", "6"); !equalInts(got, []int{0}) {
		t.Fatalf("FlowsOn(4,6) = %v, want [0]", got)
	}
	if got := nw.FlowsOn("6", "7"); !equalInts(got, []int{1}) {
		t.Fatalf("FlowsOn(6,7) = %v, want [1]", got)
	}
	// Out-of-range removals are no-ops.
	nw.RemoveFlow(-1)
	nw.RemoveFlow(7)
	if nw.NumFlows() != 2 {
		t.Fatalf("no-op removal changed NumFlows to %d", nw.NumFlows())
	}
}

func TestInterferers(t *testing.T) {
	nw := testNetwork(t)
	// v0 (0->4->6->3) and v1 (1->4->6->3) share links 4->6 and 6->3;
	// v2 (2->5->6->7) shares nothing with either.
	if got := nw.Interferers(0); !equalInts(got, []int{1}) {
		t.Fatalf("Interferers(0) = %v, want [1]", got)
	}
	if got := nw.Interferers(1); !equalInts(got, []int{0}) {
		t.Fatalf("Interferers(1) = %v, want [0]", got)
	}
	if got := nw.Interferers(2); got != nil {
		t.Fatalf("Interferers(2) = %v, want empty", got)
	}
	if got := nw.Interferers(9); got != nil {
		t.Fatalf("Interferers(9) = %v, want empty", got)
	}
}

func TestFlowsOnMatchesScan(t *testing.T) {
	// The index-backed FlowsOn must agree with a direct route scan for
	// every link after a mix of additions and removals.
	nw := testNetwork(t)
	nw.RemoveFlow(0)
	if _, err := nw.AddFlow(&FlowSpec{
		Flow: videoFlow("v3"), Route: []NodeID{"0", "4", "6", "3"}, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, l := range nw.Topo.Links() {
		var want []int
		for i, fs := range nw.Flows() {
			if fs.Uses(l.From, l.To) {
				want = append(want, i)
			}
		}
		if got := nw.FlowsOn(l.From, l.To); !equalInts(got, want) {
			t.Errorf("FlowsOn(%s,%s) = %v, want %v", l.From, l.To, got, want)
		}
	}
}

func TestRemoveLastFlow(t *testing.T) {
	nw := testNetwork(t)
	n := nw.NumFlows()
	nw.RemoveLastFlow()
	if nw.NumFlows() != n-1 {
		t.Fatalf("NumFlows = %d, want %d", nw.NumFlows(), n-1)
	}
	empty := New(MustFigure1(Figure1Options{}))
	empty.RemoveLastFlow() // must not panic
}

func TestNetworkValidate(t *testing.T) {
	nw := testNetwork(t)
	if err := nw.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAssignPrioritiesDM(t *testing.T) {
	topo := MustFigure1(Figure1Options{})
	nw := New(topo)
	mk := func(name string, dl units.Time) *FlowSpec {
		return &FlowSpec{
			Flow: &gmf.Flow{Name: name, Frames: []gmf.Frame{
				{MinSep: 30 * ms, Deadline: dl, PayloadBits: 8000},
			}},
			Route: []NodeID{"0", "4", "6", "3"},
		}
	}
	for _, fs := range []*FlowSpec{mk("a", 100*ms), mk("b", 10*ms), mk("c", 50*ms), mk("d", 10*ms)} {
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	nw.AssignPrioritiesDM()
	pa, pb, pc, pd := nw.Flow(0).Priority, nw.Flow(1).Priority, nw.Flow(2).Priority, nw.Flow(3).Priority
	if !(pb > pc && pc > pa) {
		t.Fatalf("priorities not deadline monotonic: a=%d b=%d c=%d", pa, pb, pc)
	}
	if pb != pd {
		t.Fatalf("equal deadlines got different priorities: b=%d d=%d", pb, pd)
	}
}

func TestCampus(t *testing.T) {
	topo, hosts, err := Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 6 {
		t.Fatalf("hosts = %d, want 6", len(hosts))
	}
	// Hosts are switch-major: hosts[2],[3] hang off sw1.
	route, err := topo.Route(hosts[2], hosts[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 || route[1] != "sw1" {
		t.Fatalf("local route = %v", route)
	}
	// Cross-campus route traverses the backbone chain.
	route, err = topo.Route(hosts[0], hosts[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 5 {
		t.Fatalf("cross route = %v", route)
	}
	if _, _, err := Campus(0, 2); err == nil {
		t.Fatal("Campus(0,2) succeeded")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
