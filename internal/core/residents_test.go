package core

import (
	"fmt"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// checkRegistry checks the registry's own indexes: the admission-order
// list is doubly linked in admission order and holds Len residents,
// every name key lists only residents of that name, at least one, in
// admission order, and all of them hold Len between them, and every
// resident hop is its link's entry at the slot it records, with no
// other entries.
func checkRegistry(t testing.TB, rs *Residents) {
	t.Helper()
	n, hops := 0, 0
	for r := &rs.list; r.next != &rs.list; r = r.next {
		m := r.next
		if m.prev != r || (r != &rs.list && m.seq <= r.seq) {
			t.Fatalf("admission list broken after %d residents", n)
		}
		n++
		for i, h := range m.hops {
			if h.slot >= len(h.link.on) || h.link.on[h.slot] != (linkEntry{m, i}) {
				t.Fatalf("resident %q: hop %d is not its link's entry at slot %d", m.spec.Flow.Name, i, h.slot)
			}
		}
		hops += len(m.hops)
	}
	if n != rs.Len() {
		t.Fatalf("admission list links %d residents, Len %d", n, rs.Len())
	}
	named := 0
	for name, q := range rs.byName {
		if len(q) == 0 {
			t.Fatalf("name %q keeps an empty entry", name)
		}
		for i, r := range q {
			if r.spec.Flow.Name != name || r.next == nil || (i > 0 && r.seq <= q[i-1].seq) {
				t.Fatalf("name %q: resident %d is not resident or out of admission order", name, i)
			}
		}
		named += len(q)
	}
	if named != n {
		t.Fatalf("name index holds %d residents, Len %d", named, n)
	}
	entries := 0
	for _, l := range rs.links {
		entries += len(l.on)
	}
	if entries != hops {
		t.Fatalf("link index holds %d entries, residents cross %d links", entries, hops)
	}
}

// checkOwnership checks the shard partition against the registry, with
// every claimed departure removed: each shard sits at the position it
// records and holds flows, every resident's links name one live shard
// whose engine holds it, the shards hold exactly the residents, and a
// link names a shard exactly when it has residents.
func checkOwnership(t testing.TB, se *ShardedEngine) {
	t.Helper()
	held := make(map[*shard]map[*network.FlowSpec]int, len(se.shards))
	for i, s := range se.shards {
		if s.at != i || s.eng.Network().NumFlows() == 0 {
			t.Fatalf("shard %d records position %d and holds %d flows", i, s.at, s.eng.Network().NumFlows())
		}
		held[s] = make(map[*network.FlowSpec]int)
		for _, fs := range s.eng.Network().Flows() {
			held[s][fs]++
		}
	}
	for r := se.res.list.next; r != &se.res.list; r = r.next {
		for _, h := range r.hops {
			if h.link.s != r.shard() {
				t.Fatalf("resident %q crosses links of two shards", r.spec.Flow.Name)
			}
		}
		if held[r.shard()][r.spec] == 0 {
			t.Fatalf("resident %q is not in the live shard its links name", r.spec.Flow.Name)
		}
		held[r.shard()][r.spec]--
	}
	for key, l := range se.res.links {
		if (len(l.on) == 0) != (l.s == nil) {
			t.Fatalf("link %s->%s has %d residents and names shard %p", key[0], key[1], len(l.on), l.s)
		}
	}
	for _, m := range held {
		for fs, n := range m {
			if n != 0 {
				t.Fatalf("a shard holds %q, which is not its resident", fs.Flow.Name)
			}
		}
	}
}

// TestRegistryChurnAllocs pins that entering and taking out one
// resident costs the same at any population: an enter + remove pair
// allocates 3 objects — the resident, its hop list, its name-index
// entry — whether 64 or 4 096 residents (in disjoint closures) are
// registered; the link entries and the walk state are reused.
func TestRegistryChurnAllocs(t *testing.T) {
	const want = 3
	topo, hosts, err := network.Backbone(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name string, src, dst network.NodeID) *network.FlowSpec {
		route, err := topo.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return &network.FlowSpec{Flow: trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}), Route: route}
	}
	for _, n := range []int{64, 4096} {
		rs := newResidents()
		for i := 0; i < n; i++ {
			g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
			rs.enter(rs.prepare(spec(fmt.Sprintf("r%d", i), hosts[g*4+pair[0]], hosts[g*4+pair[1]]), true), nil)
		}
		churn := spec("churn", hosts[0], hosts[1])
		got := testing.AllocsPerRun(200, func() {
			r := rs.prepare(churn, false)
			rs.enter(r, nil)
			rs.remove(r)
		})
		if got != want {
			t.Errorf("%d residents: enter + remove allocates %v objects, want %d", n, got, want)
		}
		checkRegistry(t, rs)
		if rs.Len() != n {
			t.Fatalf("registry holds %d residents after the churn, want %d", rs.Len(), n)
		}
	}
}

// pendingFixture returns an engine with a0 and a1 on one route
// (h0_0->h0_1) and b0..b2 on another (h2_0->h2_1), one shard each, and
// a spec that bridges the two routes.
func pendingFixture(t *testing.T) (*ShardedEngine, *network.FlowSpec) {
	t.Helper()
	topo, _, err := network.Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{Flow: trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}), Route: route}
	}
	nw := network.New(topo)
	for _, fs := range []*network.FlowSpec{
		mk("a0", "h0_0", "sw0", "h0_1"), mk("a1", "h0_0", "sw0", "h0_1"),
		mk("b0", "h2_0", "sw2", "h2_1"), mk("b1", "h2_0", "sw2", "h2_1"), mk("b2", "h2_0", "sw2", "h2_1"),
	} {
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	se, err := NewShardedEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if se.NumShards() != 2 {
		t.Fatalf("%d shards, want 2", se.NumShards())
	}
	checkOwnership(t, se)
	return se, mk("bridge", "h0_0", "sw0", "sw1", "sw2", "h2_1")
}

// admit places and admits fs.
func admit(t *testing.T, se *ShardedEngine, fs *network.FlowSpec) {
	t.Helper()
	p, err := se.Place(fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine().AddFlow(fs); err != nil {
		t.Fatal(err)
	}
	p.Admit(0)
	p.Done()
}

// TestResplitWithClaimPending pins that a re-split of a shard that
// still holds a claimed flow is refused — the flow has left the
// registry, so no closure owns it — and leaves the departure's shard in
// place, so the Remove that follows still applies and the re-split then
// succeeds.
func TestResplitWithClaimPending(t *testing.T) {
	se, bridge := pendingFixture(t)
	admit(t, se, bridge)
	d := se.Claim(se.res.Named("bridge")[0])
	if _, err := se.Resplit(); err == nil {
		t.Fatal("Resplit with the bridge claimed but not removed: no error")
	}
	if err := se.Remove(d); err != nil {
		t.Fatal(err)
	}
	if n, err := se.Resplit(); err != nil || n != 1 || se.NumShards() != 2 {
		t.Fatalf("Resplit after the Remove: %d more shards (err %v), %d shards, want 1 and 2", n, err, se.NumShards())
	}
	checkOwnership(t, se)
}

// TestRemoveAfterShardDropped pins that a departure whose shard a
// placement dropped since its Claim is refused: a0 is claimed, then a
// bridge fuses a1's shard — still holding a0 — into b's larger one.
func TestRemoveAfterShardDropped(t *testing.T) {
	se, bridge := pendingFixture(t)
	d := se.Claim(se.res.Named("a0")[0])
	admit(t, se, bridge)
	if err := se.Remove(d); err == nil {
		t.Fatal("Remove of a departure whose shard fusion dropped: no error")
	}
}
