package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// shardedRandomNetwork builds a campus network with n random local/
// cross-backbone VoIP and CBR flows.
func shardedRandomNetwork(t *testing.T, r *rand.Rand, switches, hostsPer, n int) *network.Network {
	t.Helper()
	topo, hosts, err := network.Campus(switches, hostsPer)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.New(topo)
	for i := 0; nw.NumFlows() < n; i++ {
		var src, dst network.NodeID
		if r.Float64() < 0.8 {
			s := r.Intn(switches)
			src = hosts[s*hostsPer+r.Intn(hostsPer)]
			dst = hosts[s*hostsPer+r.Intn(hostsPer)]
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
		name := fmt.Sprintf("f%d", i)
		fs := &network.FlowSpec{Route: route, Priority: network.Priority(1 + r.Intn(3))}
		if r.Intn(3) > 0 {
			fs.Flow = trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond})
			fs.RTP = true
		} else {
			fs.Flow = trace.CBRVideo(name, 4000+r.Int63n(8000), 33*units.Millisecond, 200*units.Millisecond)
		}
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// analyzeShards converges every shard and returns the per-shard
// results in shard order.
func analyzeShards(t *testing.T, se *ShardedEngine) []*Result {
	t.Helper()
	var out []*Result
	for _, e := range se.Shards() {
		res, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// boundsByName flattens per-flow frame bounds keyed by flow name.
func boundsByName(t *testing.T, results ...*Result) map[string][]units.Time {
	t.Helper()
	out := make(map[string][]units.Time)
	for _, res := range results {
		for i := range res.Flows {
			fr := &res.Flows[i]
			if fr.Err != nil {
				t.Fatalf("flow %q: %v", fr.Name, fr.Err)
			}
			if _, dup := out[fr.Name]; dup {
				t.Fatalf("flow %q appears in two shards", fr.Name)
			}
			var rs []units.Time
			for k := range fr.Frames {
				rs = append(rs, fr.Frames[k].Response)
			}
			out[fr.Name] = rs
		}
	}
	return out
}

// TestShardedEngineMatchesMonolithic partitions random networks by
// closure and asserts every shard-computed bound equals the monolithic
// engine's bound for the same flow.
func TestShardedEngineMatchesMonolithic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			nw := shardedRandomNetwork(t, r, 6, 3, 24)

			mono, err := NewEngine(nw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := mono.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if !want.Converged {
				t.Fatal("monolithic analysis did not converge")
			}

			se, err := NewShardedEngine(nw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if se.NumShards() != nw.NumClosures() {
				t.Fatalf("%d shards, want %d closures", se.NumShards(), nw.NumClosures())
			}
			if se.NumFlows() != nw.NumFlows() {
				t.Fatalf("%d flows across shards, want %d", se.NumFlows(), nw.NumFlows())
			}
			checkOwnership(t, se)
			got := boundsByName(t, analyzeShards(t, se)...)
			wantBounds := boundsByName(t, want)
			if len(got) != len(wantBounds) {
				t.Fatalf("%d sharded flows, want %d", len(got), len(wantBounds))
			}
			for name, wb := range wantBounds {
				gb, ok := got[name]
				if !ok {
					t.Fatalf("flow %q missing from shards", name)
				}
				for k := range wb {
					if gb[k] != wb[k] {
						t.Fatalf("flow %q frame %d: sharded bound %v, want %v", name, k, gb[k], wb[k])
					}
				}
			}
		})
	}
}

// TestAdoptFromIsWarm pins the fusion splice: merging two converged,
// resource-disjoint engines must yield an engine that is already at
// its fixpoint — no dirty flows, one cache-hit Analyze — with bounds
// identical to the parts.
func TestAdoptFromIsWarm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nw := shardedRandomNetwork(t, r, 4, 3, 16)
	se, err := NewShardedEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if se.NumShards() < 2 {
		t.Skip("draw produced a single closure")
	}
	want := boundsByName(t, analyzeShards(t, se)...)

	engines := se.Shards()
	dst, src := engines[0], engines[1]
	if err := dst.adoptFrom(src); err != nil {
		t.Fatal(err)
	}
	if !dst.valid || len(dst.js.dirty) != 0 {
		t.Fatalf("fused engine not warm: valid=%v dirty=%d", dst.valid, len(dst.js.dirty))
	}
	res, err := dst.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fused engine did not report convergence")
	}
	got := boundsByName(t, res)
	for name, gb := range got {
		wb, ok := want[name]
		if !ok {
			t.Fatalf("unexpected flow %q in fused engine", name)
		}
		for k := range wb {
			if gb[k] != wb[k] {
				t.Fatalf("flow %q frame %d: fused bound %v, want %v", name, k, gb[k], wb[k])
			}
		}
	}
}

// TestSnapshotRestoreResplitsClosures is the rollback regression for
// closure tracking: a tentative bridging admission fuses two closures;
// restoring the pre-request snapshot — after a second window-added flow
// joined and the bridge departed again — must re-split them, since the
// closures are computed from the surviving pipelines.
func TestSnapshotRestoreResplitsClosures(t *testing.T) {
	topo, _, err := network.Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.New(topo)
	mk := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
			RTP:      true,
		}
	}
	if _, err := nw.AddFlow(mk("a", "h0_0", "sw0", "h0_1")); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddFlow(mk("b", "h2_0", "sw2", "h2_1")); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if n := nw.NumClosures(); n != 2 {
		t.Fatalf("%d closures, want 2", n)
	}

	snap := eng.Snapshot()
	if _, err := eng.AddFlow(mk("bridge", "h0_0", "sw0", "sw1", "sw2", "h2_1")); err != nil {
		t.Fatal(err)
	}
	if n := nw.NumClosures(); n != 1 {
		t.Fatalf("after tentative bridge: %d closures, want 1", n)
	}
	if _, err := eng.AddFlow(mk("c", "h1_0", "sw1", "h1_1")); err != nil {
		t.Fatal(err)
	}
	// The bridge departs under the same snapshot: the closures split.
	if err := eng.RemoveFlow(2); err != nil {
		t.Fatal(err)
	}
	if n := nw.NumClosures(); n != 3 {
		t.Fatalf("after the bridge departed: %d closures, want 3", n)
	}
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if n := nw.NumClosures(); n != 2 {
		t.Fatalf("after restore: %d closures, want 2", n)
	}
	if nw.NumFlows() != 2 || nw.Flow(0).Flow.Name != "a" || nw.Flow(1).Flow.Name != "b" {
		t.Fatalf("restore did not reproduce the flow set: %d flows", nw.NumFlows())
	}
}

// TestResplitAfterDeparture pins the split lifecycle: a bridging flow
// fuses two shards; its departure plus Resplit must restore one shard
// per closure with bounds equal to a cold analysis.
func TestResplitAfterDeparture(t *testing.T) {
	topo, _, err := network.Campus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	nw := network.New(topo)
	mk := func(name string, route ...network.NodeID) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
			RTP:      true,
		}
	}
	for _, fs := range []*network.FlowSpec{
		mk("a", "h0_0", "sw0", "h0_1"),
		mk("b", "h2_0", "sw2", "h2_1"),
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

	bridge := mk("bridge", "h0_0", "sw0", "sw1", "sw2", "h2_1")
	p, err := se.Place(bridge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine().AddFlow(bridge); err != nil {
		t.Fatal(err)
	}
	p.Admit(0)
	p.Done()
	if se.NumShards() != 1 {
		t.Fatalf("%d shards after fusion, want 1", se.NumShards())
	}
	analyzeShards(t, se)

	if err := se.Remove(se.Claim(se.Residents().Named("bridge")[0])); err != nil {
		t.Fatal(err)
	}
	delta, err := se.Resplit()
	if err != nil {
		t.Fatal(err)
	}
	if se.NumShards() != 2 || delta != 1 {
		t.Fatalf("after resplit: %d shards (delta %d), want 2 (delta 1)", se.NumShards(), delta)
	}
	checkOwnership(t, se)
	got := boundsByName(t, analyzeShards(t, se)...)

	ref := network.New(topo)
	for _, fs := range []*network.FlowSpec{
		mk("a", "h0_0", "sw0", "h0_1"),
		mk("b", "h2_0", "sw2", "h2_1"),
	} {
		if _, err := ref.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	an, err := NewAnalyzer(ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	wantBounds := boundsByName(t, want)
	for name, wb := range wantBounds {
		gb, ok := got[name]
		if !ok {
			t.Fatalf("flow %q missing after resplit", name)
		}
		for k := range wb {
			if gb[k] != wb[k] {
				t.Fatalf("flow %q frame %d: post-resplit bound %v, want %v", name, k, gb[k], wb[k])
			}
		}
	}
}
