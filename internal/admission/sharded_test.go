package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// runShardedStreamDifferential drives one randomized request/release
// stream through the sharded controller and the monolithic cold
// referee (ColdController, one whole-network analysis per request) and
// asserts
// identical decisions, release outcomes, resident sets and final
// bounds. Local-heavy traffic keeps closures disjoint; cross-backbone
// requests force fusions; departures force re-splits.
func runShardedStreamDifferential(t *testing.T, topo *network.Topology, hosts []network.NodeID, seed int64, n int) {
	t.Helper()
	mono, err := NewColdController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	var live []string
	maxShards := 0
	for step := 0; step < n; step++ {
		if sh := shard.NumShards(); sh > maxShards {
			maxShards = sh
		}
		if len(live) > 0 && r.Float64() < 0.25 {
			name := live[r.Intn(len(live))]
			mok, err := mono.Release(name)
			if err != nil {
				t.Fatal(err)
			}
			sok, err := shard.Release(name)
			if err != nil {
				t.Fatal(err)
			}
			if mok != sok {
				t.Fatalf("step %d: release %q diverged: mono=%v sharded=%v", step, name, mok, sok)
			}
			for i, nm := range live {
				if nm == name {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			continue
		}
		fs := shardedStreamSpec(r, topo, hosts, fmt.Sprintf("s%d", step))
		if fs == nil {
			continue
		}
		md, err := mono.Request(fs)
		if err != nil {
			t.Fatal(err)
		}
		c := *fs
		sd, err := shard.Request(&c)
		if err != nil {
			t.Fatal(err)
		}
		if md.Admitted != sd.Admitted {
			t.Fatalf("step %d (%s): mono=%v sharded=%v", step, fs.Flow.Name, md.Admitted, sd.Admitted)
		}
		if md.Admitted {
			live = append(live, fs.Flow.Name)
		}
	}
	if shard.NumFlows() != mono.NumFlows() {
		t.Fatalf("resident counts: sharded=%d mono=%d", shard.NumFlows(), mono.NumFlows())
	}
	checkShardedBounds(t, shard, coldAnalysis(t, mono.Network()))
	t.Logf("seed %d: %d residents across %d shards (peak %d shards)",
		seed, shard.NumFlows(), shard.NumShards(), maxShards)
}

// shardedStreamSpec draws one request: 70% pod-local VoIP/CBR (keeps
// closures disjoint), 30% cross-backbone (forces closure fusions), with
// occasional heavy video so rejections occur.
func shardedStreamSpec(r *rand.Rand, topo *network.Topology, hosts []network.NodeID, name string) *network.FlowSpec {
	for tries := 0; tries < 32; tries++ {
		var src, dst network.NodeID
		if r.Float64() < 0.7 {
			g := r.Intn(len(hosts) / 2)
			src = hosts[2*g]
			dst = hosts[2*g+1]
			if r.Intn(2) == 0 {
				src, dst = dst, src
			}
		} else {
			src = hosts[r.Intn(len(hosts))]
			dst = hosts[r.Intn(len(hosts))]
		}
		if src == dst {
			continue
		}
		route, err := topo.Route(src, dst)
		if err != nil {
			continue
		}
		fs := &network.FlowSpec{Route: route, Priority: network.Priority(1 + r.Intn(3))}
		switch r.Intn(6) {
		case 0:
			fs.Flow = trace.CBRVideo(name, 100000+r.Int63n(100000), 30*units.Millisecond, 250*units.Millisecond)
		case 1, 2:
			fs.Flow = trace.CBRVideo(name, 4000+r.Int63n(8000), 33*units.Millisecond, 200*units.Millisecond)
		default:
			fs.Flow = trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond})
			fs.RTP = true
		}
		return fs
	}
	return nil
}

// TestShardedMatchesMonolithicFatTree is the randomized stream
// differential against the whole-network cold referee on a 4-ary fat
// tree, where pod-local traffic shards well and cross-pod arrivals fuse
// closures.
func TestShardedMatchesMonolithicFatTree(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			topo, hosts, err := network.FatTree(4)
			if err != nil {
				t.Fatal(err)
			}
			runShardedStreamDifferential(t, topo, hosts, seed, 60)
		})
	}
}

// TestShardedMatchesMonolithicRing runs the same property on an
// 8-switch industrial ring — the worst case for sharding, where the
// backbone quickly fuses everything into one closure.
func TestShardedMatchesMonolithicRing(t *testing.T) {
	for seed := int64(20); seed < 22; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			topo, hosts, err := network.Ring(8, 3)
			if err != nil {
				t.Fatal(err)
			}
			runShardedStreamDifferential(t, topo, hosts, seed, 50)
		})
	}
}

// TestShardedFusionLifecycle pins the deterministic fuse/split story:
// two pod-local flows shard separately; a bridging arrival fuses their
// shards before admission; the bridge's departure re-splits them — and
// decisions stay equal to the monolithic cold referee throughout.
func TestShardedFusionLifecycle(t *testing.T) {
	topo, _, err := network.Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
			RTP:      true,
		}
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := NewColdController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := func(fs *network.FlowSpec) Decision {
		t.Helper()
		c := *fs
		md, err := mono.Request(&c)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := ctl.Request(fs)
		if err != nil {
			t.Fatal(err)
		}
		if md.Admitted != sd.Admitted {
			t.Fatalf("%s: mono=%v sharded=%v", fs.Flow.Name, md.Admitted, sd.Admitted)
		}
		return sd
	}

	req(mk("a", "h0_0", "sw0", "h0_1"))
	req(mk("b", "h2_0", "sw2", "h2_1"))
	if n := ctl.NumShards(); n != 2 {
		t.Fatalf("disjoint flows: %d shards, want 2", n)
	}
	d := req(mk("bridge", "h0_0", "sw0", "sw1", "sw2", "h2_1"))
	if !d.Admitted {
		t.Fatal("bridge rejected")
	}
	if n := ctl.NumShards(); n != 1 {
		t.Fatalf("after bridging arrival: %d shards, want 1", n)
	}
	for _, c := range []interface {
		Release(string) (bool, error)
	}{mono, ctl} {
		ok, err := c.Release("bridge")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("bridge not found on release")
		}
	}
	if n := ctl.NumShards(); n != 2 {
		t.Fatalf("after bridge departure: %d shards, want 2", n)
	}
	checkShardedBounds(t, ctl, coldAnalysis(t, mono.Network()))
}

// TestShardedReleaseDuplicateNames pins Release's admission-order
// semantics under duplicate flow names: the cold referee removes the
// *first admitted* flow with the name, and the sharded controller must
// remove the very same flow even though shard-creation order differs
// from admission order.
func TestShardedReleaseDuplicateNames(t *testing.T) {
	topo, _, err := network.Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
			RTP:      true,
		}
	}
	mono, err := NewColdController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// "y" opens closure A (shard 1); the first "x" opens closure B
	// (shard 2); the second "x" joins closure A (shard 1). A name scan
	// in shard order would find the second "x" first — admission order
	// must find the closure-B one.
	reqs := []*network.FlowSpec{
		mk("y", "h0_0", "sw0", "h0_1"),
		mk("x", "h2_0", "sw2", "h2_1"),
		mk("x", "h0_0", "sw0", "h0_1"),
	}
	for _, fs := range reqs {
		cp := *fs
		if _, err := mono.Request(&cp); err != nil {
			t.Fatal(err)
		}
		if _, err := shard.Request(fs); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []interface {
		Release(string) (bool, error)
	}{mono, shard} {
		ok, err := c.Release("x")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("release missed")
		}
	}
	// The referee's survivor set is {y, x(closure A)}; compare bounds
	// by name — if the sharded controller removed the wrong "x", the
	// surviving x's bounds (closure A, sharing links with y) differ
	// from a lone closure-B x.
	if mono.NumFlows() != 2 || shard.NumFlows() != 2 {
		t.Fatalf("resident counts: mono=%d sharded=%d, want 2", mono.NumFlows(), shard.NumFlows())
	}
	checkShardedBounds(t, shard, coldAnalysis(t, mono.Network()))
	// The survivor "x" must be the closure-A instance in both: its
	// shard also hosts "y".
	for _, eng := range shard.Sharded().Shards() {
		nw := eng.Network()
		for i := 0; i < nw.NumFlows(); i++ {
			if nw.Flow(i).Flow.Name == "x" && nw.NumFlows() != 2 {
				t.Fatalf("surviving x shares a shard with %d flows, want 2 (it must be the closure-A twin)",
					nw.NumFlows())
			}
		}
	}
}

// TestShardedRejectedBridgeResplits pins that a fusion performed for a
// request that is then rejected does not outlive the next re-split
// (NumShards runs one): arrival-only workloads with rejected bridging
// requests must not decay the partition toward one monolithic shard.
func TestShardedRejectedBridgeResplits(t *testing.T) {
	topo, _, err := network.Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mkVoip := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
			RTP:      true,
		}
	}
	for _, fs := range []*network.FlowSpec{
		mkVoip("a", "h0_0", "sw0", "h0_1"),
		mkVoip("b", "h2_0", "sw2", "h2_1"),
	} {
		if d, err := ctl.Request(fs); err != nil || !d.Admitted {
			t.Fatalf("setup admit: %v %v", d.Admitted, err)
		}
	}
	if n := ctl.NumShards(); n != 2 {
		t.Fatalf("%d shards, want 2", n)
	}
	// A bridging hog (~160 Mbit/s over the 100 Mbit/s backbone): fuses
	// both shards for the decision, is rejected, and the re-split must
	// undo the fusion.
	hog := &network.FlowSpec{
		Flow:     trace.CBRVideo("hog", 600000, 30*units.Millisecond, 100*units.Millisecond),
		Route:    []network.NodeID{"h0_0", "sw0", "sw1", "sw2", "h2_1"},
		Priority: 1,
	}
	d, err := ctl.Request(hog)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatal("hog admitted")
	}
	if n := ctl.NumShards(); n != 2 {
		t.Fatalf("after rejected bridge: %d shards, want 2 (fusion not re-split)", n)
	}
	// Same property through the batch path.
	if _, err := ctl.RequestBatch([]*network.FlowSpec{{
		Flow:     trace.CBRVideo("hog2", 600000, 30*units.Millisecond, 100*units.Millisecond),
		Route:    []network.NodeID{"h0_1", "sw0", "sw1", "sw2", "h2_0"},
		Priority: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	if n := ctl.NumShards(); n != 2 {
		t.Fatalf("after rejected bridging batch: %d shards, want 2", n)
	}
}

// TestShardedDepartureFreesRoutes pins the resource-route refcounting:
// after a departure, pipeline resources no surviving shard flow
// crosses must be unrouted, so a newcomer using only those resources
// opens its own shard instead of being pulled into the old one.
func TestShardedDepartureFreesRoutes(t *testing.T) {
	topo, _, err := network.Campus(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
			RTP:      true,
		}
	}
	// a and f share h0_0->sw0 (one closure); f's egress sw0->h0_2 is
	// exclusive to f.
	for _, fs := range []*network.FlowSpec{
		mk("a", "h0_0", "sw0", "h0_1"),
		mk("f", "h0_0", "sw0", "h0_2"),
	} {
		if d, err := ctl.Request(fs); err != nil || !d.Admitted {
			t.Fatalf("setup admit: %v %v", d.Admitted, err)
		}
	}
	if n := ctl.NumShards(); n != 1 {
		t.Fatalf("%d shards, want 1", n)
	}
	if ok, err := ctl.Release("f"); err != nil || !ok {
		t.Fatalf("release f: %v %v", ok, err)
	}
	// g uses only f's former exclusive resources (plus its own first
	// hop): a fresh closure, so it must open its own shard rather than
	// join a's.
	d, err := ctl.Request(mk("g", "h0_3", "sw0", "h0_2"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatal("g rejected")
	}
	// Count the shards without NumShards, whose re-split would hide a
	// stale route by splitting g back out.
	if n := len(ctl.Sharded().Shards()); n != 2 {
		t.Fatalf("after departure + fresh newcomer: %d shards, want 2 (stale route pulled g in)", n)
	}
}

// TestShardedRejectionLeavesNoShard pins the bookkeeping around a
// rejected newcomer into fresh territory: the tentative shard is
// dropped, and no resource route leaks that would misdirect later
// requests.
func TestShardedRejectionLeavesNoShard(t *testing.T) {
	topo, _, err := network.Campus(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// ~160 Mbit/s into a 100 Mbit/s edge link: overloaded, rejected.
	heavy := &network.FlowSpec{
		Flow:     trace.CBRVideo("hog", 600000, 30*units.Millisecond, 100*units.Millisecond),
		Route:    []network.NodeID{"h0_0", "sw0", "h0_1"},
		Priority: 1,
	}
	d, err := ctl.Request(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatal("overloading flow admitted")
	}
	if n := ctl.NumShards(); n != 0 {
		t.Fatalf("rejected flow left %d shards, want 0", n)
	}
	// The same pipeline must still admit a feasible flow afterwards.
	ok := &network.FlowSpec{
		Flow:     trace.VoIP("call", trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
		Route:    []network.NodeID{"h0_0", "sw0", "h0_1"},
		Priority: 2,
		RTP:      true,
	}
	d, err = ctl.Request(ok)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatal("feasible flow rejected after prior rejection")
	}
	if n := ctl.NumShards(); n != 1 {
		t.Fatalf("%d shards, want 1", n)
	}
}
