package admitd

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// routedSpec is a minimal valid flow on the topology's shortest route.
func routedSpec(t testing.TB, topo *network.Topology, name string, src, dst network.NodeID) *network.FlowSpec {
	t.Helper()
	route, err := topo.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return &network.FlowSpec{
		Flow: &gmf.Flow{Name: name, Frames: []gmf.Frame{
			{MinSep: 20 * units.Millisecond, Deadline: 100 * units.Millisecond, PayloadBits: 160 * 8},
		}},
		Route: route,
	}
}

// foldServer is a Server over topo reduced to what a fold touches — the
// controller (counters-only, its hook installed as New installs it) and
// the subscription table — with no goroutine and no sockets, so folds
// can be driven and timed directly. With subscribed set, one connection
// (a large queue nobody reads; drain empties it) subscribes to that
// name.
func foldServer(t testing.TB, topo *network.Topology, subscribed string) (*Server, *conn) {
	t.Helper()
	ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetRetention(admission.RetainCounters)
	s := &Server{
		cfg:   Config{Queue: 1024},
		topo:  topo,
		ctl:   ctl,
		conns: make(map[*conn]bool),
		subs:  make(map[string]map[*conn]bool),
	}
	ctl.SetNotify(s.onFold)
	if subscribed == "" {
		return s, nil
	}
	c := &conn{kick: make(chan struct{}, 1), subs: map[string]bool{subscribed: true}}
	s.conns[c] = true
	s.subs[subscribed] = map[*conn]bool{c: true}
	return s, c
}

// admit requests fs and fails unless it is admitted.
func (s *Server) admit(t testing.TB, fs *network.FlowSpec) {
	t.Helper()
	if d, err := s.ctl.Request(fs); err != nil || !d.Admitted {
		t.Fatalf("request %s: admitted=%v err=%v", fs.Flow.Name, d.Admitted, err)
	}
}

func drain(c *conn) int {
	n := len(c.q)
	c.q = c.q[:0]
	return n
}

// BenchmarkFanoutFold times one fold — admits and releases of one
// churning flow alternate, through the server's controller — among 256
// or 4 096 residents in one-flow closures, or in one fused ~250-flow
// closure, with nobody subscribed and with one subscriber owed an event
// by every fold. Each fold includes its admission decision or its
// departure.
func BenchmarkFanoutFold(b *testing.B) {
	type setup func(testing.TB, *Server) (churn *network.FlowSpec)
	tiny := func(n int) (*network.Topology, setup) {
		topo, hosts, err := network.Backbone(32, 32, 4)
		if err != nil {
			b.Fatal(err)
		}
		return topo, func(t testing.TB, s *Server) *network.FlowSpec {
			// r0, r1, ... in n disjoint closures: one per directed host
			// pair of a 4-host access group.
			for i := 0; i < n; i++ {
				g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
				s.admit(t, routedSpec(t, topo, fmt.Sprintf("r%d", i), hosts[g*4+pair[0]], hosts[g*4+pair[1]]))
			}
			return routedSpec(t, topo, "churn", hosts[0], hosts[1]) // joins r0's closure
		}
	}
	fused := func() (*network.Topology, setup) {
		// Cross-leaf traffic on a small fabric: every route climbs to
		// the lowest spine, so 250 flows fuse into one closure.
		topo, hosts, err := network.ClosTenant(4, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		return topo, func(t testing.TB, s *Server) *network.FlowSpec {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 250; i++ {
				src := rng.Intn(len(hosts))
				dst := (src + 8 + rng.Intn(len(hosts)-16)) % len(hosts) // another leaf
				s.admit(t, routedSpec(t, topo, fmt.Sprintf("r%d", i), hosts[src], hosts[dst]))
			}
			res := s.ctl.Residents()
			if n := res.Population(res.Named("r0")[0]); n < 240 {
				t.Fatalf("fused closure holds %d flows, want ~250", n)
			}
			return routedSpec(t, topo, "churn", hosts[0], hosts[8])
		}
	}
	for _, bc := range []struct {
		name  string
		build func() (*network.Topology, setup)
	}{
		{"tiny256", func() (*network.Topology, setup) { return tiny(256) }},
		{"tiny4096", func() (*network.Topology, setup) { return tiny(4096) }},
		{"fused250", fused},
	} {
		for _, sub := range []string{"", "r0"} {
			name := bc.name + "/nosub"
			if sub != "" {
				name = bc.name + "/sub"
			}
			b.Run(name, func(b *testing.B) {
				topo, build := bc.build()
				s, c := foldServer(b, topo, sub)
				churn := build(b, s)
				if c != nil {
					drain(c)
				}
				events := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%2 == 0 {
						s.admit(b, churn)
					} else if ok, err := s.release("churn"); err != nil || !ok {
						b.Fatalf("release: ok=%v err=%v", ok, err)
					}
					if c != nil {
						events += drain(c)
					}
				}
				if c != nil && events != b.N {
					b.Fatalf("%d folds pushed %d events, want one each", b.N, events)
				}
			})
		}
	}
}
