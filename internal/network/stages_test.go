package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gmfnet/internal/units"
)

// checkStages compares every flow's per-position stage record with what
// the name-keyed topology gives: the link of the stage (Topology.Link),
// the CIRC of the switch serving it (Topology.CIRC), and the flows whose
// route uses the stage's link, found by scanning every route.
func checkStages(t *testing.T, nw *Network, ctx string) {
	t.Helper()
	for i, fs := range nw.Flows() {
		route, rids := fs.Route, nw.FlowResources(i)
		if want := 1 + 2*(len(route)-2); len(rids) != want {
			t.Fatalf("%s: flow %d has %d resources, want %d", ctx, i, len(rids), want)
		}
		for pos, rid := range rids {
			h := (pos + 1) / 2
			from, to := route[h], route[h+1] // a link stage
			if pos%2 == 1 {
				from, to = route[h-1], route[h] // in(route[h]) is reached over route[h-1]->route[h]
			}
			st := nw.Stage(rid)
			if st.Link != nw.Topo.Link(from, to) || st.Link == nil {
				t.Fatalf("%s: flow %d stage %d: link %v, want %s->%s", ctx, i, pos, st.Link, from, to)
			}
			if pos == 0 {
				if st.Switch != nil {
					t.Fatalf("%s: flow %d first hop served by switch %q", ctx, i, st.Switch.ID)
				}
			} else {
				circ, err := nw.Topo.CIRC(route[h])
				if err != nil {
					t.Fatal(err)
				}
				if got := st.CIRC(); got != circ {
					t.Fatalf("%s: flow %d stage %d: CIRC %v, want CIRC(%s) = %v", ctx, i, pos, got, route[h], circ)
				}
			}
			g, ok := nw.LinkResourceID(from, to)
			if !ok || st.Group != g || st.Group != rids[pos&^1] {
				t.Fatalf("%s: flow %d stage %d: group %d, want link %s->%s = %d (interned %v)", ctx, i, pos, st.Group, from, to, g, ok)
			}
			var want []int
			for j, other := range nw.Flows() {
				if other.Uses(from, to) {
					want = append(want, j)
				}
			}
			if got := nw.LinkFlows(st.Group); !slices.Equal(got, want) {
				t.Fatalf("%s: flow %d stage %d: flows on %s->%s = %v, want %v", ctx, i, pos, from, to, got, want)
			}
		}
	}
}

// TestStagesMatchTopology drives random flow churn over the clos,
// backbone and ring generators and checks the stage records against
// the name-keyed oracle after every step. Now and then a new host is
// linked to a switch on a resident route, raising its CIRC under flows
// that already use it: the records must follow.
func TestStagesMatchTopology(t *testing.T) {
	gens := []struct {
		name  string
		build func() (*Topology, []NodeID, error)
	}{
		{"clos", func() (*Topology, []NodeID, error) { return ClosTenant(3, 4, 3) }},
		{"backbone", func() (*Topology, []NodeID, error) { return Backbone(4, 2, 2) }},
		{"ring", func() (*Topology, []NodeID, error) { return Ring(5, 2) }},
	}
	for _, g := range gens {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				topo, hosts, err := g.build()
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				nw := New(topo)
				added := 0
				for step := 0; step < 300; step++ {
					switch op := r.Intn(10); {
					case op < 6 || nw.NumFlows() == 0:
						src := hosts[r.Intn(len(hosts))]
						dst := hosts[r.Intn(len(hosts))]
						if src == dst {
							continue
						}
						route, err := topo.Route(src, dst)
						if err != nil {
							t.Fatal(err)
						}
						fs := &FlowSpec{Flow: closureFlow(fmt.Sprintf("f%d", step)), Route: route, Priority: Priority(r.Intn(3))}
						if _, err := nw.AddFlow(fs); err != nil {
							t.Fatal(err)
						}
					case op < 9:
						nw.RemoveFlow(r.Intn(nw.NumFlows()))
					default:
						route := nw.Flow(r.Intn(nw.NumFlows())).Route
						if len(route) < 3 {
							continue
						}
						sw := route[1+r.Intn(len(route)-2)]
						host := NodeID(fmt.Sprintf("late%d", added))
						added++
						if err := topo.AddHost(host); err != nil {
							t.Fatal(err)
						}
						if err := topo.AddDuplexLink(host, sw, 100*units.Mbps, 0); err != nil {
							t.Fatal(err)
						}
					}
					checkStages(t, nw, fmt.Sprintf("step %d", step))
				}
				if added == 0 {
					t.Fatal("no link was added under resident flows")
				}
			})
		}
	}
}
