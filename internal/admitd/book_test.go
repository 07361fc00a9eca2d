package admitd

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/admission"
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

// checkBook compares the book with the cold oracle holding the same
// flows: network.Network's union-find partition. Every resident's book
// closure must equal the oracle's as a set of spec pointers,
// populations must agree (asked closure by closure, and again for all
// residents inside one epoch, where the book memoizes), firstOfName
// must pick the oracle closure's lowest-index flow of each name, and
// the book's resident list must be the oracle's flow list in order.
func checkBook(t testing.TB, b *book, nw *network.Network) {
	t.Helper()
	if len(b.bySpec) != nw.NumFlows() {
		t.Fatalf("book holds %d residents, oracle %d", len(b.bySpec), nw.NumFlows())
	}
	named := 0
	for _, q := range b.byName {
		named += len(q)
	}
	if named != nw.NumFlows() {
		t.Fatalf("name index holds %d residents, oracle %d", named, nw.NumFlows())
	}
	onLinks, hops := 0, 0
	for _, l := range b.links {
		onLinks += len(l.on)
	}
	for i, fs := range b.residents() {
		if fs != nw.Flow(i) {
			t.Fatalf("book resident %d is %q, oracle has %q there", i, fs.Flow.Name, nw.Flow(i).Flow.Name)
		}
		hops += len(fs.Route) - 1
	}
	if onLinks != hops {
		t.Fatalf("link index holds %d entries, residents cross %d links", onLinks, hops)
	}
	closures := nw.Closures()
	for i := 0; i < nw.NumFlows(); i++ {
		r := b.bySpec[nw.Flow(i)]
		if r == nil {
			t.Fatalf("oracle flow %d (%q) is not in the book", i, nw.Flow(i).Flow.Name)
		}
		want := closures[nw.ClosureOf(i)]
		got := b.closure(r)
		if len(got) != len(want) || got[0] != r {
			t.Fatalf("flow %d: book closure has %d members (first is self: %v), oracle %d", i, len(got), got[0] == r, len(want))
		}
		in := make(map[*network.FlowSpec]bool, len(got))
		for _, m := range got {
			in[m.spec] = true
		}
		first := true
		for _, j := range want {
			if !in[nw.Flow(j)] {
				t.Fatalf("flow %d: oracle closure member %d (%q) missing from the book closure", i, j, nw.Flow(j).Flow.Name)
			}
			if j < i && nw.Flow(j).Flow.Name == nw.Flow(i).Flow.Name {
				first = false
			}
		}
		if n := b.population(r); n != len(want) {
			t.Fatalf("flow %d: population %d, oracle %d", i, n, len(want))
		}
		if got := b.firstOfName(r); got != first {
			t.Fatalf("flow %d (%q): firstOfName = %v, oracle says %v", i, nw.Flow(i).Flow.Name, got, first)
		}
	}
	b.newEpoch()
	for i := 0; i < nw.NumFlows(); i++ {
		if n, want := b.population(b.bySpec[nw.Flow(i)]), len(closures[nw.ClosureOf(i)]); n != want {
			t.Fatalf("flow %d: memoized population %d, oracle %d", i, n, want)
		}
	}
}

// TestClosureBookMatchesNetwork drives the book and the oracle through
// the same seeded add/remove interleavings — duplicate names, arrivals
// that fuse closures, departures of a bridging flow that split one, a
// drain to empty and a refill — and compares them after every step.
func TestClosureBookMatchesNetwork(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*network.Topology, []network.NodeID, error)
		group int // hosts per locality group
	}{
		{"backbone", func() (*network.Topology, []network.NodeID, error) { return network.Backbone(3, 2, 3) }, 3},
		{"clos", func() (*network.Topology, []network.NodeID, error) { return network.ClosTenant(2, 4, 4) }, 4},
		{"ring", func() (*network.Topology, []network.NodeID, error) { return network.Ring(5, 3) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, hosts, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				b, nw := newBook(), network.New(topo)
				fusions, splits := 0, 0
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
					b.add(fs)
					if nw.NumClosures() < before {
						fusions++
					}
				}
				remove := func() {
					i := rng.Intn(nw.NumFlows())
					before := nw.NumClosures()
					b.remove(b.bySpec[nw.Flow(i)])
					nw.RemoveFlow(i)
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
					checkBook(t, b, nw)
				}
				for nw.NumFlows() > 0 {
					remove()
					checkBook(t, b, nw)
				}
				add()
				checkBook(t, b, nw)
				if fusions == 0 || splits == 0 {
					t.Fatalf("seed %d exercised %d fusions and %d splits, want both", seed, fusions, splits)
				}
			}
		})
	}
}

// FuzzClosureBook interprets the input as an add/remove/query script on
// a five-switch ring — three bytes per step: opcode, then two operands
// picking the hosts (and through them one of four names) or the
// resident to remove — and holds the book to the oracle wherever the
// script asks, and at its end.
func FuzzClosureBook(f *testing.F) {
	// Two flows under one switch, a query.
	f.Add([]byte{0, 0, 1, 0, 1, 2, 2, 0, 0})
	// h0_0->h0_2 and h1_0->h1_2 are fused by the bridge h0_0->h1_2,
	// which then departs and splits them again.
	f.Add([]byte{0, 0, 2, 0, 3, 5, 0, 0, 5, 2, 0, 0, 1, 2, 0, 2, 0, 0})
	// One name three times, twice in one closure; the first departs.
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 4, 5, 1, 0, 0, 2, 0, 0})
	// Cross-ring routes, then more removals than residents.
	f.Add([]byte{0, 0, 9, 0, 3, 12, 0, 6, 14, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	topo, hosts, err := network.Ring(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		b, nw := newBook(), network.New(topo)
		for ; len(script) >= 3; script = script[3:] {
			x, y := int(script[1]), int(script[2])
			switch script[0] % 3 {
			case 0:
				src, dst := hosts[x%len(hosts)], hosts[y%len(hosts)]
				if src == dst {
					continue
				}
				fs := routedSpec(t, topo, fmt.Sprintf("f%d", (x+y)%4), src, dst)
				if _, err := nw.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
				b.add(fs)
			case 1:
				if nw.NumFlows() == 0 {
					continue
				}
				i := x % nw.NumFlows()
				b.remove(b.bySpec[nw.Flow(i)])
				nw.RemoveFlow(i)
			case 2:
				checkBook(t, b, nw)
			}
		}
		checkBook(t, b, nw)
	})
}

// foldServer is a Server reduced to what onFold touches — the book
// and the subscription table — with no controller, no
// dispatcher goroutine and no sockets, so folds can be fed and timed
// directly. With subscribed set, one connection (a large queue nobody
// reads; drain empties it) subscribes to that name.
func foldServer(subscribed string) (*Server, *conn) {
	s := &Server{
		book:  newBook(),
		conns: make(map[*conn]bool),
		subs:  make(map[string]map[*conn]bool),
	}
	if subscribed == "" {
		return s, nil
	}
	c := &conn{out: make(chan Msg, 1024), subs: map[string]bool{subscribed: true}}
	s.conns[c] = true
	s.subs[subscribed] = map[*conn]bool{c: true}
	return s, c
}

func (s *Server) fold(fs *network.FlowSpec, k admission.FoldKind) {
	s.onFold(admission.FoldEvent{Spec: fs, Kind: k})
}

func drain(c *conn) (n int) {
	for len(c.out) > 0 {
		<-c.out
		n++
	}
	return n
}

// tinyClosures admits n residents r0, r1, ... in n disjoint closures —
// one per directed host pair of a 4-host access group, all on one
// backbone — and returns the topology and its hosts.
func tinyClosures(t testing.TB, s *Server, n int) (*network.Topology, []network.NodeID) {
	t.Helper()
	topo, hosts, err := network.Backbone(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
		s.fold(routedSpec(t, topo, fmt.Sprintf("r%d", i), hosts[g*4+pair[0]], hosts[g*4+pair[1]]), admission.FoldAdmitted)
	}
	return topo, hosts
}

// TestFoldCostIndependentOfResidents pins the tentpole's claim where
// it is exact: with no subscriber an admit + release fold pair
// allocates 3 objects — the resident, its hop list, its name-index
// entry — whether 64 or 4 096 residents (in disjoint closures) are on
// the book; the link entries and the walk state are reused.
func TestFoldCostIndependentOfResidents(t *testing.T) {
	const want = 3
	for _, n := range []int{64, 4096} {
		s, _ := foldServer("")
		topo, hosts := tinyClosures(t, s, n)
		churn := routedSpec(t, topo, "churn", hosts[0], hosts[1])
		got := testing.AllocsPerRun(200, func() {
			s.fold(churn, admission.FoldAdmitted)
			s.fold(churn, admission.FoldReleased)
		})
		if got != want {
			t.Errorf("%d residents: admit+release fold pair allocates %v objects, want %d", n, got, want)
		}
		if len(s.book.bySpec) != n {
			t.Fatalf("book holds %d residents after the churn, want %d", len(s.book.bySpec), n)
		}
	}
}

// BenchmarkFanoutFold times one fold (admits and releases of one
// churning flow alternate) against a book of 256 or 4 096 residents in
// one-flow closures, or of one fused ~250-flow closure, with nobody
// subscribed and with one subscriber owed an event by every fold.
func BenchmarkFanoutFold(b *testing.B) {
	type setup func(testing.TB, *Server) (churn *network.FlowSpec)
	tiny := func(n int) setup {
		return func(t testing.TB, s *Server) *network.FlowSpec {
			topo, hosts := tinyClosures(t, s, n)
			return routedSpec(t, topo, "churn", hosts[0], hosts[1]) // joins r0's closure
		}
	}
	fused := func(t testing.TB, s *Server) *network.FlowSpec {
		// Cross-leaf traffic on a small fabric: every route climbs to
		// the lowest spine, so 250 flows fuse into one closure.
		topo, hosts, err := network.ClosTenant(4, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 250; i++ {
			src := rng.Intn(len(hosts))
			dst := (src + 8 + rng.Intn(len(hosts)-16)) % len(hosts) // another leaf
			s.fold(routedSpec(t, topo, fmt.Sprintf("r%d", i), hosts[src], hosts[dst]), admission.FoldAdmitted)
		}
		if n := s.book.population(s.book.byName["r0"][0]); n < 240 {
			t.Fatalf("fused closure holds %d flows, want ~250", n)
		}
		return routedSpec(t, topo, "churn", hosts[0], hosts[8])
	}
	for _, bc := range []struct {
		name  string
		build setup
	}{
		{"tiny256", tiny(256)},
		{"tiny4096", tiny(4096)},
		{"fused250", fused},
	} {
		for _, sub := range []string{"", "r0"} {
			name := bc.name + "/nosub"
			if sub != "" {
				name = bc.name + "/sub"
			}
			b.Run(name, func(b *testing.B) {
				s, c := foldServer(sub)
				churn := bc.build(b, s)
				if c != nil {
					drain(c)
				}
				events := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%2 == 0 {
						s.fold(churn, admission.FoldAdmitted)
					} else {
						s.fold(churn, admission.FoldReleased)
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
