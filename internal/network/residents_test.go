package network

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/gmf"
	"gmfnet/internal/units"
)

// routedSpec is a minimal valid flow on the topology's shortest route.
func routedSpec(t testing.TB, topo *Topology, name string, src, dst NodeID) *FlowSpec {
	t.Helper()
	route, err := topo.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return &FlowSpec{
		Flow: &gmf.Flow{Name: name, Frames: []gmf.Frame{
			{MinSep: 20 * units.Millisecond, Deadline: 100 * units.Millisecond, PayloadBits: 160 * 8},
		}},
		Route: route,
	}
}

// claimFirst removes the first flow named name from both the registry
// and the oracle, the way admission.ShardedController.Release and
// admission.ColdController.Release claim it; false when none is
// resident.
func claimFirst(t testing.TB, rs *Residents, nw *Network, name string) bool {
	t.Helper()
	q := rs.Named(name)
	at := -1
	for i, fs := range nw.Flows() {
		if fs.Flow.Name == name {
			at = i
			break
		}
	}
	if (len(q) == 0) != (at < 0) {
		t.Fatalf("claim %q: registry has %d residents by that name, oracle index %d", name, len(q), at)
	}
	if at < 0 {
		return false
	}
	if q[0].Spec() != nw.Flow(at) {
		t.Fatalf("claim %q: registry's first is not the oracle's first", name)
	}
	rs.Remove(q[0])
	nw.RemoveFlow(at)
	return true
}

// residentAt returns the i-th resident in admission order.
func residentAt(rs *Residents, i int) *Resident {
	r := rs.list.next
	for ; i > 0; i-- {
		r = r.next
	}
	return r
}

// checkResidents compares the registry with the cold oracle holding the
// same flows in the same order: network.Network's flow list and its
// union-find partition. The admission-order list must be the oracle's
// flow list pointer for pointer, every name's list its flows of that
// name in order, and every link entry must belong to a resident hop.
// Every resident's closure must equal the oracle's as a set of specs,
// populations must agree (asked closure by closure, and again for all
// residents inside one epoch, where the registry memoizes), and
// FirstOfName must pick the oracle closure's lowest-index flow of each
// name.
func checkResidents(t testing.TB, rs *Residents, nw *Network) {
	t.Helper()
	if rs.Len() != nw.NumFlows() {
		t.Fatalf("registry holds %d residents, oracle %d", rs.Len(), nw.NumFlows())
	}
	flows := rs.Flows()
	if len(flows) != nw.NumFlows() {
		t.Fatalf("admission-order list has %d flows, oracle %d", len(flows), nw.NumFlows())
	}
	var order []*Resident
	for r := &rs.list; r.next != &rs.list; r = r.next {
		if r.next.prev != r || r.next.next.prev != r.next {
			t.Fatalf("admission list is inconsistent after %d residents", len(order))
		}
		order = append(order, r.next)
	}
	if len(order) != rs.Len() {
		t.Fatalf("admission list links %d residents, Len %d", len(order), rs.Len())
	}
	names := make(map[string][]*FlowSpec)
	hops := 0
	for i, fs := range flows {
		if fs != nw.Flow(i) || order[i].Spec() != fs {
			t.Fatalf("resident %d is %q, oracle has %q there", i, fs.Flow.Name, nw.Flow(i).Flow.Name)
		}
		names[fs.Flow.Name] = append(names[fs.Flow.Name], fs)
		hops += len(fs.Route) - 1
	}
	if len(rs.byName) != len(names) {
		t.Fatalf("name index has %d names, oracle %d", len(rs.byName), len(names))
	}
	for name, want := range names {
		q := rs.Named(name)
		if len(q) != len(want) {
			t.Fatalf("name %q: %d residents, oracle %d", name, len(q), len(want))
		}
		for i, r := range q {
			if r.Spec() != want[i] {
				t.Fatalf("name %q: resident %d out of admission order", name, i)
			}
		}
	}
	onLinks := 0
	for _, l := range rs.links {
		onLinks += len(l.on)
	}
	if onLinks != hops {
		t.Fatalf("link index holds %d entries, residents cross %d links", onLinks, hops)
	}
	closures := nw.Closures()
	for i, r := range order {
		want := closures[nw.ClosureOf(i)]
		got := rs.Closure(r)
		if len(got) != len(want) || got[0] != r {
			t.Fatalf("flow %d: registry closure has %d members (first is self: %v), oracle %d", i, len(got), got[0] == r, len(want))
		}
		in := make(map[*FlowSpec]bool, len(got))
		for _, m := range got {
			in[m.Spec()] = true
		}
		first := true
		for _, j := range want {
			if !in[nw.Flow(j)] {
				t.Fatalf("flow %d: oracle closure member %d (%q) missing from the registry closure", i, j, nw.Flow(j).Flow.Name)
			}
			if j < i && nw.Flow(j).Flow.Name == nw.Flow(i).Flow.Name {
				first = false
			}
		}
		if n := rs.Population(r); n != len(want) {
			t.Fatalf("flow %d: population %d, oracle %d", i, n, len(want))
		}
		if got := rs.FirstOfName(r); got != first {
			t.Fatalf("flow %d (%q): FirstOfName = %v, oracle says %v", i, nw.Flow(i).Flow.Name, got, first)
		}
	}
	rs.newEpoch()
	for i, r := range order {
		if n, want := rs.Population(r), len(closures[nw.ClosureOf(i)]); n != want {
			t.Fatalf("flow %d: memoized population %d, oracle %d", i, n, want)
		}
	}
}

// TestResidentsMatchNetwork drives the registry and the oracle through
// the same seeded add/remove interleavings — duplicate names, arrivals
// that fuse closures, departures of a bridging flow that split one,
// claims of the first resident by a repeated name, a drain to empty and
// a refill — and compares them after every step.
func TestResidentsMatchNetwork(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Topology, []NodeID, error)
		group int // hosts per locality group
	}{
		{"backbone", func() (*Topology, []NodeID, error) { return Backbone(3, 2, 3) }, 3},
		{"clos", func() (*Topology, []NodeID, error) { return ClosTenant(2, 4, 4) }, 4},
		{"ring", func() (*Topology, []NodeID, error) { return Ring(5, 3) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, hosts, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rs, nw := NewResidents(), New(topo)
				fusions, splits, repeats := 0, 0, 0
				add := func() {
					// Mostly group-local pairs (many small closures), some
					// cross-group ones (their routes bridge closures); names
					// come from a pool small enough to repeat.
					g := rng.Intn(len(hosts) / tc.group)
					src := hosts[g*tc.group+rng.Intn(tc.group)]
					dst := hosts[g*tc.group+rng.Intn(tc.group)]
					if rng.Float64() < 0.25 {
						dst = hosts[rng.Intn(len(hosts))]
					}
					if src == dst {
						return
					}
					fs := routedSpec(t, topo, fmt.Sprintf("f%d", rng.Intn(24)), src, dst)
					before := nw.NumClosures()
					if _, err := nw.AddFlow(fs); err != nil {
						t.Fatal(err)
					}
					rs.Add(fs)
					if nw.NumClosures() < before {
						fusions++
					}
				}
				remove := func() {
					before := nw.NumClosures()
					i := rng.Intn(nw.NumFlows())
					if rng.Intn(2) == 0 {
						// An arbitrary resident departs.
						rs.Remove(residentAt(rs, i))
						nw.RemoveFlow(i)
					} else {
						// The first resident by some resident's name
						// departs, the way Release claims it.
						name := nw.Flow(i).Flow.Name
						if len(rs.Named(name)) > 1 {
							repeats++
						}
						claimFirst(t, rs, nw, name)
					}
					if nw.NumClosures() > before {
						splits++
					}
				}
				for step := 0; step < 400; step++ {
					// Long runs of growth, then of shrinkage, so closures
					// both build up and come apart.
					pAdd := 0.7
					if (step/80)%2 == 1 {
						pAdd = 0.3
					}
					if nw.NumFlows() == 0 || rng.Float64() < pAdd {
						add()
					} else {
						remove()
					}
					checkResidents(t, rs, nw)
				}
				for nw.NumFlows() > 0 {
					remove()
					checkResidents(t, rs, nw)
				}
				add()
				checkResidents(t, rs, nw)
				if fusions == 0 || splits == 0 || repeats == 0 {
					t.Fatalf("seed %d exercised %d fusions, %d splits and %d claims of a repeated name, want all", seed, fusions, splits, repeats)
				}
			}
		})
	}
}

// FuzzResidents interprets the input as an add/remove/query/claim
// script on a five-switch ring — three bytes per step: opcode, then two
// operands picking the hosts (and through them one of four names), the
// resident to remove or the name to claim — and holds the registry to
// the oracle wherever the script asks, and at its end.
func FuzzResidents(f *testing.F) {
	// Two flows under one switch, a query.
	f.Add([]byte{0, 0, 1, 0, 1, 2, 2, 0, 0})
	// h0_0->h0_2 and h1_0->h1_2 are fused by the bridge h0_0->h1_2,
	// which then departs and splits them again.
	f.Add([]byte{0, 0, 2, 0, 3, 5, 0, 0, 5, 2, 0, 0, 1, 2, 0, 2, 0, 0})
	// One name three times, twice in one closure; the first departs.
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 4, 5, 1, 0, 0, 2, 0, 0})
	// Cross-ring routes, then more removals than residents.
	f.Add([]byte{0, 0, 9, 0, 3, 12, 0, 6, 14, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	// Name f1 three times (0+1, 1+0, 5+0), claimed twice, then a claim
	// of a name nobody holds.
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 5, 0, 3, 1, 0, 2, 0, 0, 3, 1, 0, 3, 2, 0})
	topo, hosts, err := Ring(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		rs, nw := NewResidents(), New(topo)
		for ; len(script) >= 3; script = script[3:] {
			x, y := int(script[1]), int(script[2])
			switch script[0] % 4 {
			case 0:
				src, dst := hosts[x%len(hosts)], hosts[y%len(hosts)]
				if src == dst {
					continue
				}
				fs := routedSpec(t, topo, fmt.Sprintf("f%d", (x+y)%4), src, dst)
				if _, err := nw.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
				rs.Add(fs)
			case 1:
				if nw.NumFlows() == 0 {
					continue
				}
				i := x % nw.NumFlows()
				rs.Remove(residentAt(rs, i))
				nw.RemoveFlow(i)
			case 2:
				checkResidents(t, rs, nw)
			case 3:
				claimFirst(t, rs, nw, fmt.Sprintf("f%d", x%4))
			}
		}
		checkResidents(t, rs, nw)
	})
}

// tinyClosures enters n residents r0, r1, ... in n disjoint closures —
// one per directed host pair of a 4-host access group, all on one
// backbone — and returns the topology and its hosts.
func tinyClosures(t testing.TB, rs *Residents, n int) (*Topology, []NodeID) {
	t.Helper()
	topo, hosts, err := Backbone(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
		rs.Add(routedSpec(t, topo, fmt.Sprintf("r%d", i), hosts[g*4+pair[0]], hosts[g*4+pair[1]]))
	}
	return topo, hosts
}

// TestResidentsChurnAllocs pins that entering and taking out one
// resident costs the same at any population: an Add + Remove pair
// allocates 3 objects — the resident, its hop list, its name-index
// entry — whether 64 or 4 096 residents (in disjoint closures) are
// registered; the link entries and the walk state are reused.
func TestResidentsChurnAllocs(t *testing.T) {
	const want = 3
	for _, n := range []int{64, 4096} {
		rs := NewResidents()
		topo, hosts := tinyClosures(t, rs, n)
		churn := routedSpec(t, topo, "churn", hosts[0], hosts[1])
		got := testing.AllocsPerRun(200, func() {
			rs.Remove(rs.Add(churn))
		})
		if got != want {
			t.Errorf("%d residents: Add + Remove allocates %v objects, want %d", n, got, want)
		}
		if rs.Len() != n {
			t.Fatalf("registry holds %d residents after the churn, want %d", rs.Len(), n)
		}
	}
}
