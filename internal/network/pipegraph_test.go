package network

import (
	"fmt"
	"math/rand"
	"testing"
)

// kahnAcyclic is the from-scratch oracle for PipelinesAcyclic: it
// rebuilds the resource graph's edge set from every flow's pipeline and
// peels sources until none is left.
func kahnAcyclic(nw *Network) bool {
	succ := make(map[ResourceID]map[ResourceID]bool)
	indeg := make(map[ResourceID]int)
	for i := 0; i < nw.NumFlows(); i++ {
		rids := nw.FlowResources(i)
		for s := range rids {
			if succ[rids[s]] == nil {
				succ[rids[s]] = make(map[ResourceID]bool)
				indeg[rids[s]] += 0
			}
			if s > 0 && !succ[rids[s-1]][rids[s]] {
				succ[rids[s-1]][rids[s]] = true
				indeg[rids[s]]++
			}
		}
	}
	var queue []ResourceID
	for r, d := range indeg {
		if d == 0 {
			queue = append(queue, r)
		}
	}
	peeled := 0
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		peeled++
		for v := range succ[r] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return peeled == len(indeg)
}

// ringRoute builds a route on Ring(n, hostsPer) that leaves host a of
// switch s, walks steps switches in direction dir (+1 or -1) and exits
// to host b of the last switch. Unlike Topology.Route it may go more
// than halfway round, which is what lets two routes cross each other's
// links in opposite orders and close a resource-graph cycle.
func ringRoute(n, s, dir, steps, a, b int) []NodeID {
	route := []NodeID{NodeID(fmt.Sprintf("h%d_%d", s, a))}
	for k := 0; k <= steps; k++ {
		route = append(route, NodeID(fmt.Sprintf("sw%d", ((s+dir*k)%n+n)%n)))
	}
	last := ((s+dir*steps)%n + n) % n
	return append(route, NodeID(fmt.Sprintf("h%d_%d", last, b)))
}

// TestPipelinesAcyclicTwoLongRoutes pins the smallest cycle: on a
// six-switch ring, two clockwise routes that each cover five switches
// overlap at both ends, so each crosses the other's first ring link
// after its own last one. Either route alone is feed-forward.
func TestPipelinesAcyclicTwoLongRoutes(t *testing.T) {
	topo, _, err := Ring(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw := New(topo)
	a := &FlowSpec{Flow: closureFlow("a"), Route: ringRoute(6, 0, 1, 4, 0, 0)} // sw0→…→sw4
	b := &FlowSpec{Flow: closureFlow("b"), Route: ringRoute(6, 3, 1, 4, 1, 1)} // sw3→…→sw1
	check := func(want bool, ctx string) {
		t.Helper()
		if got := nw.PipelinesAcyclic(); got != want {
			t.Fatalf("%s: PipelinesAcyclic=%v, want %v", ctx, got, want)
		}
		if kahnAcyclic(nw) != want {
			t.Fatalf("%s: oracle disagrees with the fixture", ctx)
		}
	}
	if _, err := nw.AddFlow(a); err != nil {
		t.Fatal(err)
	}
	check(true, "one route")
	if _, err := nw.AddFlow(b); err != nil {
		t.Fatal(err)
	}
	check(false, "crossing routes")
	nw.RemoveFlow(1)
	check(true, "after removing b")
	// Adding b again closes it again.
	if _, err := nw.AddFlow(b); err != nil {
		t.Fatal(err)
	}
	check(false, "b re-added")
	nw.RemoveFlow(0)
	check(true, "after removing a")
}

// TestPipelinesAcyclicMatchesKahn drives random add and remove churn
// of ring routes of every length and checks the
// incrementally maintained answer against the from-scratch oracle,
// querying only every other step so several mutations can pile up on a
// memoized or unknown answer. It also checks the walk saw both answers
// and every transition.
func TestPipelinesAcyclicMatchesKahn(t *testing.T) {
	const n, hostsPer = 6, 2
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			topo, _, err := Ring(n, hostsPer)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(seed))
			nw := New(topo)
			spec := func(step int) *FlowSpec {
				dir := 1
				if r.Intn(2) == 0 {
					dir = -1
				}
				steps := r.Intn(n)
				a, b := r.Intn(hostsPer), r.Intn(hostsPer)
				if steps == 0 && a == b {
					b = 1 - a
				}
				return &FlowSpec{
					Flow:  closureFlow(fmt.Sprintf("f%d", step)),
					Route: ringRoute(n, r.Intn(n), dir, steps, a, b),
				}
			}
			var sawAcyclic, sawCyclic, sawUnlock bool
			prev := true
			for step := 0; step < 300; step++ {
				switch op := r.Intn(10); {
				case op < 4 && nw.NumFlows() > 0:
					nw.RemoveFlow(r.Intn(nw.NumFlows()))
				default:
					if nw.NumFlows() < 8 {
						if _, err := nw.AddFlow(spec(step)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if step%2 == 1 {
					continue
				}
				got, want := nw.PipelinesAcyclic(), kahnAcyclic(nw)
				if got != want {
					t.Fatalf("step %d (%d flows): PipelinesAcyclic=%v, oracle %v", step, nw.NumFlows(), got, want)
				}
				sawAcyclic = sawAcyclic || got
				sawCyclic = sawCyclic || !got
				sawUnlock = sawUnlock || (got && !prev)
				prev = got
			}
			if !sawAcyclic || !sawCyclic || !sawUnlock {
				t.Fatalf("walk too tame: acyclic %v, cyclic %v, cyclic→acyclic %v", sawAcyclic, sawCyclic, sawUnlock)
			}
		})
	}
}
