package network_test

// The resident registry lives in core, next to the ShardedEngine that
// writes it; these tests hold it and the engine's shard partition to
// network.Network, whose on-demand Closures is their oracle.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

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

// registry drives a ShardedEngine the way admission.ShardedController
// does — every request admitted, departures claimed and applied later —
// next to the oracle network holding the same flows in the same order.
type registry struct {
	t       testing.TB
	se      *core.ShardedEngine
	nw      *network.Network
	pending []core.Departure           // claimed, not yet removed from their shards
	links   map[[2]network.NodeID]bool // every directed link a placed spec crossed
}

func newRegistry(t testing.TB, nw *network.Network) *registry {
	t.Helper()
	se, err := core.NewShardedEngine(nw, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := network.New(nw.Topo)
	for _, fs := range nw.Flows() {
		if _, err := oracle.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	g := &registry{t: t, se: se, nw: oracle, links: make(map[[2]network.NodeID]bool)}
	g.cross(nw.Flows()...)
	return g
}

// cross records the links the specs cross.
func (g *registry) cross(specs ...*network.FlowSpec) {
	for _, fs := range specs {
		for h := 0; h+1 < len(fs.Route); h++ {
			g.links[[2]network.NodeID{fs.Route[h], fs.Route[h+1]}] = true
		}
	}
}

// settle applies the claimed departures in claim order.
func (g *registry) settle() {
	g.t.Helper()
	for _, d := range g.pending {
		if err := g.se.Remove(d); err != nil {
			g.t.Fatal(err)
		}
	}
	g.pending = g.pending[:0]
}

// add places fs, which fuses every shard its route's links name, and
// admits it.
func (g *registry) add(fs *network.FlowSpec) {
	g.t.Helper()
	g.settle()
	g.cross(fs)
	p, err := g.se.Place(fs)
	if err != nil {
		g.t.Fatal(err)
	}
	if _, err := p.Engine().AddFlow(fs); err != nil {
		g.t.Fatal(err)
	}
	p.Admit(0)
	p.Done()
	if _, err := g.nw.AddFlow(fs); err != nil {
		g.t.Fatal(err)
	}
}

// batch places the specs as one batch and admits those whose reject
// flag is clear: each group's engine stages its admitted members, and
// the registry enters them in request order once every group is done.
func (g *registry) batch(specs []*network.FlowSpec, reject []bool) {
	g.t.Helper()
	g.settle()
	g.cross(specs...)
	groups, err := g.se.PlaceBatch(specs)
	if err != nil {
		g.t.Fatal(err)
	}
	in := make([]*core.Placement, len(specs))
	for _, bp := range groups {
		for _, i := range bp.Indices {
			in[i] = bp
			if !reject[i] {
				if _, err := bp.Engine().AddFlow(specs[i]); err != nil {
					g.t.Fatal(err)
				}
			}
		}
		bp.Done()
	}
	for i, bp := range in {
		if !reject[i] {
			bp.Admit(i)
			if _, err := g.nw.AddFlow(specs[i]); err != nil {
				g.t.Fatal(err)
			}
		}
	}
}

// residentAt returns the i-th resident in admission order.
func (g *registry) residentAt(i int) *core.Resident {
	fs := g.se.Residents().Flows()[i]
	at := slices.IndexFunc(g.se.Residents().Named(fs.Flow.Name), func(r *core.Resident) bool { return r.Spec() == fs })
	return g.se.Residents().Named(fs.Flow.Name)[at]
}

// removeAt claims the i-th resident and drops it from the oracle; its
// shard removal waits for the next settle.
func (g *registry) removeAt(i int) {
	g.pending = append(g.pending, g.se.Claim(g.residentAt(i)))
	g.nw.RemoveFlow(i)
}

// claimFirst claims the first flow named name from both the registry
// and the oracle, the way admission.ShardedController.Release and
// admission.ColdController.Release claim it; false when none is
// resident.
func (g *registry) claimFirst(name string) bool {
	g.t.Helper()
	q := g.se.Residents().Named(name)
	at := slices.IndexFunc(g.nw.Flows(), func(fs *network.FlowSpec) bool { return fs.Flow.Name == name })
	if (len(q) == 0) != (at < 0) {
		g.t.Fatalf("claim %q: registry has %d residents by that name, oracle index %d", name, len(q), at)
	}
	if at < 0 {
		return false
	}
	if q[0].Spec() != g.nw.Flow(at) {
		g.t.Fatalf("claim %q: registry's first is not the oracle's first", name)
	}
	g.pending = append(g.pending, g.se.Claim(q[0]))
	g.nw.RemoveFlow(at)
	return true
}

// resplit settles and re-splits; the shards must then be the oracle's
// closures one for one.
func (g *registry) resplit() {
	g.t.Helper()
	g.settle()
	if _, err := g.se.Resplit(); err != nil {
		g.t.Fatal(err)
	}
	if n, want := g.se.NumShards(), g.nw.NumClosures(); n != want {
		g.t.Fatalf("after Resplit: %d shards, oracle %d closures", n, want)
	}
	g.checkPartition()
}

// checkPartition settles and holds the engine's shards to the registry
// and the oracle: the shards hold exactly the residents between them,
// each resident in one shard; every link a placed spec crossed routes a
// one-link probe (Place, then Done) to the shard holding that link's
// residents, or to a fresh shard when none is left on it; and each
// shard's flows are a union of whole oracle closures.
func (g *registry) checkPartition() {
	g.t.Helper()
	g.settle()
	shards := g.se.Shards()
	shardOf := make(map[*network.FlowSpec]int)
	count := make(map[*network.FlowSpec]int)
	for k, e := range shards {
		for _, fs := range e.Network().Flows() {
			if j, ok := shardOf[fs]; ok && j != k {
				g.t.Fatalf("%q is in shards %d and %d", fs.Flow.Name, j, k)
			}
			shardOf[fs] = k
			count[fs]++
		}
	}
	holder := make(map[[2]network.NodeID]int)
	for _, fs := range g.se.Residents().Flows() {
		count[fs]--
		for h := 0; h+1 < len(fs.Route); h++ {
			key := [2]network.NodeID{fs.Route[h], fs.Route[h+1]}
			if k, ok := holder[key]; ok && k != shardOf[fs] {
				g.t.Fatalf("link %s->%s has residents in shards %d and %d", key[0], key[1], k, shardOf[fs])
			}
			holder[key] = shardOf[fs]
		}
	}
	for fs, n := range count {
		if n != 0 {
			g.t.Fatalf("the shards hold %q %+d times more often than the registry", fs.Flow.Name, n)
		}
	}
	probe := &gmf.Flow{Name: "probe"}
	for key := range g.links {
		p, err := g.se.Place(&network.FlowSpec{Flow: probe, Route: key[:]})
		if err != nil {
			g.t.Fatal(err)
		}
		want, ok := holder[key]
		if !ok {
			want = -1 // no resident: a fresh shard
		}
		if got := slices.Index(shards, p.Engine()); got != want {
			g.t.Fatalf("link %s->%s routes to shard %d, want %d", key[0], key[1], got, want)
		}
		p.Done()
	}
	for c, members := range g.nw.Closures() {
		for _, i := range members {
			if shardOf[g.nw.Flow(i)] != shardOf[g.nw.Flow(members[0])] {
				g.t.Fatalf("oracle closure %d spans shards %d and %d", c, shardOf[g.nw.Flow(members[0])], shardOf[g.nw.Flow(i)])
			}
		}
	}
}

// check compares the registry with the oracle: the admission-order list
// must be the oracle's flow list pointer for pointer, every name's list
// its flows of that name in order. Every resident's closure must equal
// the oracle's as a set of specs, populations must agree (asked closure
// by closure, and again for all residents inside one epoch, where the
// registry memoizes), and FirstOfName must pick the oracle closure's
// lowest-index flow of each name. Claimed departures are settled first
// and the partition checked (checkPartition).
func (g *registry) check() {
	g.t.Helper()
	t, rs, nw := g.t, g.se.Residents(), g.nw
	g.checkPartition()
	if rs.Len() != nw.NumFlows() {
		t.Fatalf("registry holds %d residents, oracle %d", rs.Len(), nw.NumFlows())
	}
	flows := rs.Flows()
	names := make(map[string][]*network.FlowSpec)
	order := make([]*core.Resident, len(flows))
	for i, fs := range flows {
		if fs != nw.Flow(i) {
			t.Fatalf("resident %d is %q, oracle has %q there", i, fs.Flow.Name, nw.Flow(i).Flow.Name)
		}
		names[fs.Flow.Name] = append(names[fs.Flow.Name], fs)
		order[i] = g.residentAt(i)
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
	closures := nw.Closures()
	closureOf := make([]int, len(order))
	for c, members := range closures {
		for _, i := range members {
			closureOf[i] = c
		}
	}
	for i, r := range order {
		want := closures[closureOf[i]]
		got := rs.Closure(r)
		if len(got) != len(want) || got[0] != r {
			t.Fatalf("flow %d: registry closure has %d members (first is self: %v), oracle %d", i, len(got), got[0] == r, len(want))
		}
		in := make(map[*network.FlowSpec]bool, len(got))
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
	if len(order) > 0 {
		rs.Closure(order[0]) // a new epoch: the populations below are walked afresh
	}
	for i, r := range order {
		if n, want := rs.Population(r), len(closures[closureOf[i]]); n != want {
			t.Fatalf("flow %d: memoized population %d, oracle %d", i, n, want)
		}
	}
}

// TestResidentsMatchNetwork drives the registry and the oracle through
// the same seeded add/remove interleavings — duplicate names, arrivals
// that fuse closures, departures of a bridging flow that split one,
// claims of the first resident by a repeated name, a drain to empty and
// a refill — and compares them after every step, re-splitting the
// shards every 50 steps.
func TestResidentsMatchNetwork(t *testing.T) {
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
				g := newRegistry(t, network.New(topo))
				fusions, splits, repeats := 0, 0, 0
				add := func() {
					// Mostly group-local pairs (many small closures), some
					// cross-group ones (their routes bridge closures); names
					// come from a pool small enough to repeat.
					grp := rng.Intn(len(hosts) / tc.group)
					src := hosts[grp*tc.group+rng.Intn(tc.group)]
					dst := hosts[grp*tc.group+rng.Intn(tc.group)]
					if rng.Float64() < 0.25 {
						dst = hosts[rng.Intn(len(hosts))]
					}
					if src == dst {
						return
					}
					before := g.nw.NumClosures()
					g.add(routedSpec(t, topo, fmt.Sprintf("f%d", rng.Intn(24)), src, dst))
					if g.nw.NumClosures() < before {
						fusions++
					}
				}
				remove := func() {
					before := g.nw.NumClosures()
					i := rng.Intn(g.nw.NumFlows())
					if rng.Intn(2) == 0 {
						// An arbitrary resident departs.
						g.removeAt(i)
					} else {
						// The first resident by some resident's name
						// departs, the way Release claims it.
						name := g.nw.Flow(i).Flow.Name
						if len(g.se.Residents().Named(name)) > 1 {
							repeats++
						}
						g.claimFirst(name)
					}
					if g.nw.NumClosures() > before {
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
					if g.nw.NumFlows() == 0 || rng.Float64() < pAdd {
						add()
					} else {
						remove()
					}
					g.check()
					if step%50 == 49 {
						g.resplit()
					}
				}
				for g.nw.NumFlows() > 0 {
					remove()
					g.check()
				}
				if g.se.NumShards() != 0 {
					t.Fatalf("drained registry leaves %d shards", g.se.NumShards())
				}
				add()
				g.check()
				if fusions == 0 || splits == 0 || repeats == 0 {
					t.Fatalf("seed %d exercised %d fusions, %d splits and %d claims of a repeated name, want all", seed, fusions, splits, repeats)
				}
			}
		})
	}
}

// FuzzResidents interprets the input as a script on a five-switch ring
// — three bytes per step: opcode, then two operands x and y — and holds
// the registry and the shard partition to the oracle. The opcodes are:
//
//	0: add a flow between hosts x and y named f((x+y)%4); a route that
//	   bridges closures fuses their shards;
//	1: claim the x-th resident in admission order;
//	2: check against the oracle (check);
//	3: claim the first resident named f(x%4);
//	4: settle the claimed departures;
//	5: a batch of three flows, routed from x and y, member k rejected
//	   when bit k+4 of y is set: its groups can span several shards;
//	6: settle and re-split; the shards must equal the closures.
//
// Adds and batches settle first, as the controller does. After every
// step with no claim pending the partition is verified (checkPartition).
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
	// Two closures, a bridge fuses them, the bridge is claimed, a
	// request arrives before the settle, then a re-split.
	f.Add([]byte{0, 0, 2, 0, 3, 5, 0, 0, 5, 3, 1, 0, 0, 6, 8, 4, 0, 0, 6, 0, 0, 2, 0, 0})
	// A batch member h0_0->h1_2 bridges the shards of h0_0->h0_2 and
	// h1_0->h1_2 and is admitted; two claims are settled together, then
	// a re-split.
	f.Add([]byte{0, 0, 2, 0, 3, 5, 5, 0, 5, 1, 0, 0, 3, 1, 0, 4, 0, 0, 6, 0, 0, 2, 0, 0})
	// The same bridging batch member rejected: its group's fusion stays
	// until the re-split.
	f.Add([]byte{0, 0, 2, 0, 3, 5, 5, 0, 20, 2, 0, 0, 6, 0, 0, 2, 0, 0})
	topo, hosts, err := network.Ring(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		// A check costs O(residents × closure), so a script of adds and
		// checks costs cubic time in its length: 3 000 bytes run for
		// seconds, and minimizing such an input starves the fuzzer.
		// 32 operations keep every case cheap.
		if len(script) > 96 {
			script = script[:96]
		}
		g := newRegistry(t, network.New(topo))
		host := func(i int) network.NodeID { return hosts[i%len(hosts)] }
		for ; len(script) >= 3; script = script[3:] {
			x, y := int(script[1]), int(script[2])
			switch script[0] % 7 {
			case 0:
				if host(x) == host(y) {
					continue
				}
				g.add(routedSpec(t, topo, fmt.Sprintf("f%d", (x+y)%4), host(x), host(y)))
			case 1:
				if g.nw.NumFlows() == 0 {
					continue
				}
				g.removeAt(x % g.nw.NumFlows())
			case 2:
				g.check()
			case 3:
				g.claimFirst(fmt.Sprintf("f%d", x%4))
			case 4:
				g.settle()
			case 5:
				var specs []*network.FlowSpec
				var reject []bool
				for k, pair := range [][2]int{{x, y}, {y, x + y}, {x + 2*y, y + 1}} {
					if host(pair[0]) == host(pair[1]) {
						continue
					}
					specs = append(specs, routedSpec(t, topo, fmt.Sprintf("f%d", (pair[0]+k)%4), host(pair[0]), host(pair[1])))
					reject = append(reject, y>>(k+4)&1 == 1)
				}
				if len(specs) > 0 {
					g.batch(specs, reject)
				}
			case 6:
				g.resplit()
			}
			if len(g.pending) == 0 {
				g.checkPartition()
			}
		}
		g.check()
	})
}

// tinyClosures returns a network holding n residents r0, r1, ... in n
// disjoint closures — one per directed host pair of a 4-host access
// group, all on one backbone — and its hosts.
func tinyClosures(t testing.TB, n int) (*network.Network, []network.NodeID) {
	t.Helper()
	topo, hosts, err := network.Backbone(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.New(topo)
	for i := 0; i < n; i++ {
		g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
		if _, err := nw.AddFlow(routedSpec(t, topo, fmt.Sprintf("r%d", i), hosts[g*4+pair[0]], hosts[g*4+pair[1]])); err != nil {
			t.Fatal(err)
		}
	}
	return nw, hosts
}

// residentChurnAllocs is the allocation count of admitting a flow into
// r0's one-flow shard — Place, the engine's AddFlow, Admit, Done — and
// claiming and removing it again. Measured 14 with Go 1.24.
const residentChurnAllocs = 14

// TestResidentsChurnAllocs pins that entering and taking out one
// resident costs the same at any population: the churn allocates the
// same number of objects whether 64 or 4 096 residents (in disjoint
// closures) are registered; the link entries, the shard list and the
// walk state are reused.
func TestResidentsChurnAllocs(t *testing.T) {
	for _, n := range []int{64, 4096} {
		nw, hosts := tinyClosures(t, n)
		se, err := core.NewShardedEngine(nw, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		churn := routedSpec(t, nw.Topo, "churn", hosts[0], hosts[1])
		cycle := func() {
			p, err := se.Place(churn)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Engine().AddFlow(churn); err != nil {
				t.Fatal(err)
			}
			p.Admit(0)
			p.Done()
			if err := se.Remove(se.Claim(se.Residents().Named("churn")[0])); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		got := testing.AllocsPerRun(200, cycle)
		if got != residentChurnAllocs {
			t.Errorf("%d residents: the churn allocates %v objects, want %d", n, got, residentChurnAllocs)
		}
		if se.Residents().Len() != n || se.NumShards() != n {
			t.Fatalf("%d residents in %d shards after the churn, want %d in as many", se.Residents().Len(), se.NumShards(), n)
		}
	}
}
