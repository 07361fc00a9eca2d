package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gmfnet/internal/gmf"
	"gmfnet/internal/units"
)

// closureFlow builds a minimal single-frame flow for closure tests.
func closureFlow(name string) *gmf.Flow {
	return &gmf.Flow{
		Name: name,
		Frames: []gmf.Frame{{
			PayloadBits: 8000,
			MinSep:      10 * units.Millisecond,
			Deadline:    100 * units.Millisecond,
		}},
	}
}

// bruteClosures recomputes the interference partition from first
// principles: flows are connected iff their routes share a directed
// link, and closures are the connected components of that relation,
// listed ascending and ordered by smallest member — the exact contract
// of Network.Closures.
func bruteClosures(nw *Network) [][]int {
	n := nw.NumFlows()
	shares := func(a, b *FlowSpec) bool {
		for h := 0; h < len(a.Route)-1; h++ {
			if b.Uses(a.Route[h], a.Route[h+1]) {
				return true
			}
		}
		return false
	}
	visited := make([]bool, n)
	var out [][]int
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		comp := []int{s}
		visited[s] = true
		for at := 0; at < len(comp); at++ {
			for j := 0; j < n; j++ {
				if !visited[j] && shares(nw.Flow(comp[at]), nw.Flow(j)) {
					visited[j] = true
					comp = append(comp, j)
				}
			}
		}
		// BFS discovery order is not ascending; normalise.
		for i := 1; i < len(comp); i++ {
			for k := i; k > 0 && comp[k] < comp[k-1]; k-- {
				comp[k], comp[k-1] = comp[k-1], comp[k]
			}
		}
		out = append(out, comp)
	}
	// Components were seeded in ascending order of smallest member, so
	// the outer order already matches Closures().
	return out
}

// checkClosures asserts the partition Closures computes equals the
// brute-force one, and that ClosureOf/NumClosures agree with Closures.
func checkClosures(t *testing.T, nw *Network, ctx string) {
	t.Helper()
	got := nw.Closures()
	want := bruteClosures(nw)
	if len(got) != len(want) {
		t.Fatalf("%s: %d closures, want %d (got %v want %v)", ctx, len(got), len(want), got, want)
	}
	for c := range want {
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Fatalf("%s: closure %d = %v, want %v", ctx, c, got[c], want[c])
		}
	}
	if nw.NumClosures() != len(want) {
		t.Fatalf("%s: NumClosures=%d, want %d", ctx, nw.NumClosures(), len(want))
	}
	for c, members := range want {
		for _, i := range members {
			if nw.ClosureOf(i) != c {
				t.Fatalf("%s: ClosureOf(%d)=%d, want %d", ctx, i, nw.ClosureOf(i), c)
			}
		}
	}
}

// TestClosuresDifferentialRandom drives random add/remove churn over
// random topologies and asserts after every mutation that the partition
// Closures computes on demand equals a brute-force reachability
// computation over shared directed links.
func TestClosuresDifferentialRandom(t *testing.T) {
	build := []func() (*Topology, []NodeID, error){
		func() (*Topology, []NodeID, error) { return Campus(6, 3) },
		func() (*Topology, []NodeID, error) { return Ring(8, 2) },
		func() (*Topology, []NodeID, error) { return FatTree(4) },
	}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo, hosts, err := build[int(seed)%len(build)]()
			if err != nil {
				t.Fatal(err)
			}
			nw := New(topo)
			for step := 0; step < 120; step++ {
				if nw.NumFlows() > 0 && r.Float64() < 0.35 {
					nw.RemoveFlow(r.Intn(nw.NumFlows()))
				} else {
					src := hosts[r.Intn(len(hosts))]
					dst := hosts[r.Intn(len(hosts))]
					if src == dst {
						continue
					}
					route, err := topo.Route(src, dst)
					if err != nil {
						continue
					}
					fs := &FlowSpec{
						Flow:     closureFlow(fmt.Sprintf("f%d", step)),
						Route:    route,
						Priority: Priority(r.Intn(3)),
					}
					if _, err := nw.AddFlow(fs); err != nil {
						t.Fatal(err)
					}
				}
				if step%3 == 0 { // also exercise queries between mutations
					checkClosures(t, nw, fmt.Sprintf("step %d", step))
				}
			}
			checkClosures(t, nw, "final")
		})
	}
}

// TestClosuresFusionAndSplit pins the closure lifecycle on a fixed
// topology: two pod-local flows form two closures, a bridging flow
// fuses them into one, and the bridge's departure re-splits them.
func TestClosuresFusionAndSplit(t *testing.T) {
	topo, _, err := Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw := New(topo)
	add := func(name string, route ...NodeID) int {
		t.Helper()
		i, err := nw.AddFlow(&FlowSpec{Flow: closureFlow(name), Route: route, Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	add("a", "h0_0", "sw0", "h0_1")
	add("b", "h2_0", "sw2", "h2_1")
	if n := nw.NumClosures(); n != 2 {
		t.Fatalf("disjoint flows: %d closures, want 2", n)
	}
	// Interference is directional: to fuse with both, the bridge must
	// share a directed link with each — h0_0->sw0 with "a" and
	// sw2->h2_1 with "b".
	bridge := add("bridge", "h0_0", "sw0", "sw1", "sw2", "h2_1")
	if n := nw.NumClosures(); n != 1 {
		t.Fatalf("after bridge: %d closures, want 1", n)
	}
	if nw.ClosureOf(0) != 0 || nw.ClosureOf(1) != 0 {
		t.Fatalf("bridge did not fuse: closures %d/%d", nw.ClosureOf(0), nw.ClosureOf(1))
	}
	nw.RemoveFlow(bridge)
	if n := nw.NumClosures(); n != 2 {
		t.Fatalf("after bridge departure: %d closures, want 2", n)
	}
	checkClosures(t, nw, "post-split")
}
