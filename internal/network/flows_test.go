package network

import (
	"slices"
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

// flowsOn returns flows(from,to) through the link's resource id, nil
// when no flow has used the link.
func flowsOn(nw *Network, from, to NodeID) []int {
	if g, ok := nw.LinkResourceID(from, to); ok {
		return nw.LinkFlows(g)
	}
	return nil
}

// interferers returns the flows VisitInterferers reports for flow i,
// deduplicated and ascending.
func interferers(nw *Network, i int) []int {
	seen := map[int]bool{}
	var out []int
	nw.VisitInterferers(i, func(j int) {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	})
	slices.Sort(out)
	return out
}

func TestFlowsOn(t *testing.T) {
	nw := testNetwork(t)
	if got := flowsOn(nw, "4", "6"); !equalInts(got, []int{0, 1}) {
		t.Fatalf("flows(4,6) = %v", got)
	}
	if got := flowsOn(nw, "6", "3"); !equalInts(got, []int{0, 1}) {
		t.Fatalf("flows(6,3) = %v", got)
	}
	if got := flowsOn(nw, "6", "7"); !equalInts(got, []int{2}) {
		t.Fatalf("flows(6,7) = %v", got)
	}
	if got := flowsOn(nw, "6", "4"); got != nil {
		t.Fatalf("flows(6,4) = %v, want empty", got)
	}
	// An ingress resource has no flow list of its own: its stage reads
	// the link it is reached over.
	in, ok := nw.IngressResourceID("6", "4")
	if !ok {
		t.Fatal("in(6) from 4 not interned")
	}
	if got := nw.LinkFlows(in); got != nil {
		t.Fatalf("LinkFlows(in(6) from 4) = %v, want empty", got)
	}
	if got := nw.LinkFlows(nw.Stage(in).Group); !equalInts(got, []int{0, 1}) {
		t.Fatalf("LinkFlows(group of in(6) from 4) = %v, want [0 1]", got)
	}
}

// mustLink returns the id of the directed link from->to.
func mustLink(t *testing.T, nw *Network, from, to NodeID) ResourceID {
	t.Helper()
	g, ok := nw.LinkResourceID(from, to)
	if !ok {
		t.Fatalf("link %s->%s not interned", from, to)
	}
	return g
}

// hep returns hep(i,from,to) through AppendHEP on the link's id.
func hep(t *testing.T, nw *Network, i int, from, to NodeID) []int {
	t.Helper()
	return nw.AppendHEP(nil, i, mustLink(t, nw, from, to))
}

// lp returns lp(i,from,to): the flows of the link other than i that are
// not in hep(i,from,to).
func lp(t *testing.T, nw *Network, i int, from, to NodeID) []int {
	t.Helper()
	h := hep(t, nw, i, from, to)
	var out []int
	for _, j := range flowsOn(nw, from, to) {
		if j != i && !slices.Contains(h, j) {
			out = append(out, j)
		}
	}
	return out
}

func TestHEPAndLP(t *testing.T) {
	nw := testNetwork(t)
	// On link 4->6: flow 0 (prio 2) and flow 1 (prio 1).
	if got := hep(t, nw, 1, "4", "6"); !equalInts(got, []int{0}) {
		t.Fatalf("HEP(1) = %v, want [0]", got)
	}
	if got := hep(t, nw, 0, "4", "6"); got != nil {
		t.Fatalf("HEP(0) = %v, want empty", got)
	}
	if got := lp(t, nw, 0, "4", "6"); !equalInts(got, []int{1}) {
		t.Fatalf("LP(0) = %v, want [1]", got)
	}
	if got := lp(t, nw, 1, "4", "6"); got != nil {
		t.Fatalf("LP(1) = %v, want empty", got)
	}
	// AppendHEP appends: what dst already holds is kept.
	if got := nw.AppendHEP([]int{7}, 1, mustLink(t, nw, "4", "6")); !equalInts(got, []int{7, 0}) {
		t.Fatalf("AppendHEP([7], 1) = %v, want [7 0]", got)
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
	if got := hep(t, nw, 0, "4", "6"); !equalInts(got, []int{3}) {
		t.Fatalf("HEP(0) = %v, want [3]", got)
	}
	if got := hep(t, nw, 3, "4", "6"); !equalInts(got, []int{0}) {
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
	if got := flowsOn(nw, "4", "6"); !equalInts(got, []int{0}) {
		t.Fatalf("flows(4,6) = %v, want [0]", got)
	}
	if got := flowsOn(nw, "6", "7"); !equalInts(got, []int{1}) {
		t.Fatalf("flows(6,7) = %v, want [1]", got)
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
	if got := interferers(nw, 0); !equalInts(got, []int{1}) {
		t.Fatalf("interferers(0) = %v, want [1]", got)
	}
	if got := interferers(nw, 1); !equalInts(got, []int{0}) {
		t.Fatalf("interferers(1) = %v, want [0]", got)
	}
	if got := interferers(nw, 2); got != nil {
		t.Fatalf("interferers(2) = %v, want empty", got)
	}
	if got := interferers(nw, 9); got != nil {
		t.Fatalf("interferers(9) = %v, want empty", got)
	}
}

func TestFlowsOnMatchesScan(t *testing.T) {
	// The link index must agree with a direct route scan for every link
	// after a mix of additions and removals.
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
		if got := flowsOn(nw, l.From, l.To); !equalInts(got, want) {
			t.Errorf("flows(%s,%s) = %v, want %v", l.From, l.To, got, want)
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
