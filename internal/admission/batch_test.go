package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/config"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// batchSpecs draws a request mix for the batch differential tests:
// mostly feasible VoIP/CBR calls between random hosts, with deliberately
// heavy CBR flows sprinkled in so rejections — and therefore the
// eviction path of RequestBatch — occur.
func batchSpecs(t *testing.T, r *rand.Rand, topo *network.Topology, hosts []network.NodeID, n int, tag string) []*network.FlowSpec {
	t.Helper()
	specs := make([]*network.FlowSpec, 0, n)
	for i := 0; len(specs) < n; i++ {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		if src == dst {
			continue
		}
		route, err := topo.Route(src, dst)
		if err != nil {
			continue
		}
		name := fmt.Sprintf("%s%d", tag, len(specs))
		var fs *network.FlowSpec
		switch r.Intn(5) {
		case 0, 1:
			fs = &network.FlowSpec{
				Flow: trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
				RTP:  true,
			}
		case 2, 3:
			fs = &network.FlowSpec{
				Flow: trace.CBRVideo(name, 4000+r.Int63n(8000),
					units.Time(25+r.Intn(25))*units.Millisecond, 200*units.Millisecond),
			}
		default:
			// Heavy: ~27-67 Mbit/s, so two of them meeting on a 100 Mbit/s
			// edge link overload it and force evictions.
			fs = &network.FlowSpec{
				Flow: trace.CBRVideo(name, 100000+r.Int63n(150000),
					30*units.Millisecond, 250*units.Millisecond),
			}
		}
		fs.Route = route
		fs.Priority = network.Priority(1 + r.Intn(3))
		specs = append(specs, fs)
	}
	return specs
}

// copySpecs gives each controller its own shallow spec copies, like a
// real deployment where every replica parses its own request.
func copySpecs(specs []*network.FlowSpec) []*network.FlowSpec {
	out := make([]*network.FlowSpec, len(specs))
	for i, fs := range specs {
		c := *fs
		out[i] = &c
	}
	return out
}

// runBatchDifferential drives the same request list through the
// sharded controller as one RequestBatch, as chunked batches and one by
// one (RequestAll), through decideBatch on a single engine over the
// whole network (every closure in one bisection), and through the
// from-scratch ColdController, then asserts identical accept sets and
// identical final jitter bounds.
func runBatchDifferential(t *testing.T, topo *network.Topology, specs []*network.FlowSpec, chunk int) {
	t.Helper()
	newSharded := func() *ShardedController {
		c, err := NewShardedController(network.New(topo), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	batchCtl, chunkCtl, seqCtl := newSharded(), newSharded(), newSharded()
	coldCtl, err := NewColdController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	batchDs, err := batchCtl.RequestBatch(copySpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	chunked := copySpecs(specs)
	var chunkDs []Decision
	for at := 0; at < len(chunked); at += chunk {
		end := at + chunk
		if end > len(chunked) {
			end = len(chunked)
		}
		ds, err := chunkCtl.RequestBatch(chunked[at:end])
		if err != nil {
			t.Fatal(err)
		}
		chunkDs = append(chunkDs, ds...)
	}
	seqDs, err := seqCtl.RequestAll(copySpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	engDs, err := decideBatch(eng, copySpecs(specs), true)
	if err != nil {
		t.Fatal(err)
	}
	var coldDs []Decision
	for _, fs := range copySpecs(specs) {
		d, err := coldCtl.Request(fs)
		if err != nil {
			t.Fatal(err)
		}
		coldDs = append(coldDs, d)
	}

	if len(batchDs) != len(specs) || len(chunkDs) != len(specs) ||
		len(seqDs) != len(specs) || len(engDs) != len(specs) {
		t.Fatalf("decision counts: batch=%d chunked=%d seq=%d engine=%d, want %d",
			len(batchDs), len(chunkDs), len(seqDs), len(engDs), len(specs))
	}
	for i := range specs {
		if batchDs[i].Admitted != coldDs[i].Admitted ||
			chunkDs[i].Admitted != coldDs[i].Admitted ||
			seqDs[i].Admitted != coldDs[i].Admitted ||
			engDs[i].Admitted != coldDs[i].Admitted {
			t.Fatalf("spec %d (%s): decisions diverged: batch=%v chunked=%v seq=%v engine=%v cold=%v",
				i, specs[i].Flow.Name, batchDs[i].Admitted, chunkDs[i].Admitted,
				seqDs[i].Admitted, engDs[i].Admitted, coldDs[i].Admitted)
		}
	}
	if batchCtl.Rejected() == 0 {
		t.Log("note: no rejections in this draw; eviction path not exercised")
	}

	// Final admitted sets and bounds must equal the cold referee's.
	want := coldAnalysis(t, coldCtl.Network())
	if !want.Schedulable() {
		t.Fatal("admitted set is not schedulable")
	}
	got, err := eng.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("engine: %d admitted flows, want %d", len(got.Flows), len(want.Flows))
	}
	for i := range want.Flows {
		if got.Flows[i].Name != want.Flows[i].Name {
			t.Fatalf("engine: flow %d is %q, want %q", i, got.Flows[i].Name, want.Flows[i].Name)
		}
		for k := range want.Flows[i].Frames {
			if got.Flows[i].Frames[k].Response != want.Flows[i].Frames[k].Response {
				t.Fatalf("engine: flow %d frame %d bound %v, want %v", i, k,
					got.Flows[i].Frames[k].Response, want.Flows[i].Frames[k].Response)
			}
		}
	}
	// The sharded controller has no global flow order; compare its
	// admitted set and bounds by flow name.
	for _, c := range []*ShardedController{batchCtl, chunkCtl, seqCtl} {
		if c.NumFlows() != len(want.Flows) {
			t.Fatalf("sharded: %d admitted flows, want %d", c.NumFlows(), len(want.Flows))
		}
		checkShardedBounds(t, c, want)
	}
}

// checkShardedBounds asserts the sharded controller's per-shard bounds
// equal the reference analysis, matched by flow name.
func checkShardedBounds(t *testing.T, shardCtl *ShardedController, want *core.Result) {
	t.Helper()
	checkEngineBounds(t, shardCtl.Sharded(), want)
}

// checkEngineBounds asserts a sharded engine's per-shard bounds equal
// the reference analysis, matched by flow name.
func checkEngineBounds(t *testing.T, se *core.ShardedEngine, want *core.Result) {
	t.Helper()
	shardResults, err := se.AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]core.FlowResult)
	for _, res := range shardResults {
		for i := range res.Flows {
			if _, dup := got[res.Flows[i].Name]; dup {
				t.Fatalf("sharded: flow %q in two shards", res.Flows[i].Name)
			}
			got[res.Flows[i].Name] = res.Flows[i]
		}
	}
	for i := range want.Flows {
		wf := &want.Flows[i]
		gf, ok := got[wf.Name]
		if !ok {
			t.Fatalf("sharded: flow %q missing", wf.Name)
		}
		for k := range wf.Frames {
			if gf.Frames[k].Response != wf.Frames[k].Response {
				t.Fatalf("sharded: flow %q frame %d bound %v, want %v",
					wf.Name, k, gf.Frames[k].Response, wf.Frames[k].Response)
			}
		}
	}
}

// TestBatchMatchesSequentialRing is the randomized differential test on
// the 8-switch industrial ring generator.
func TestBatchMatchesSequentialRing(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo, hosts, err := network.Ring(8, 3)
			if err != nil {
				t.Fatal(err)
			}
			specs := batchSpecs(t, r, topo, hosts, 16, fmt.Sprintf("r%d-", seed))
			runBatchDifferential(t, topo, specs, 5)
		})
	}
}

// TestBatchMatchesSequentialFatTree runs the same property on a 4-ary
// fat tree.
func TestBatchMatchesSequentialFatTree(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo, hosts, err := network.FatTree(4)
			if err != nil {
				t.Fatal(err)
			}
			specs := batchSpecs(t, r, topo, hosts, 18, fmt.Sprintf("ft%d-", seed))
			runBatchDifferential(t, topo, specs, 4)
		})
	}
}

// TestBatchFallsBackOnHolisticCap pins the non-monotone-verdict escape
// hatch: with a holistic iteration cap so tight that analyses stop
// before converging, decideBatch must abandon the bisection (whose
// monotonicity argument no longer holds) and fall back to literal
// one-by-one processing, keeping decisions identical to deciding each
// request on its own — on one engine and through the sharded
// controller alike.
func TestBatchFallsBackOnHolisticCap(t *testing.T) {
	topo, hosts, err := network.Ring(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	capHits := 0
	// Under seed 67 and a cap of 2, bisecting instead of falling back
	// decides differently from one-by-one processing.
	for _, seed := range []int64{3, 67} {
		specs := batchSpecs(t, rand.New(rand.NewSource(seed)), topo, hosts, 12, "cap-")
		for _, iters := range []int{1, 2, 3} {
			cfg := core.Config{MaxHolisticIter: iters}
			newEngine := func() *core.Engine {
				eng, err := core.NewEngine(network.New(topo), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			// Count the caps at which the staged whole batch itself stops
			// short, which sends decideBatch straight to the fallback.
			probe := newEngine()
			for _, fs := range copySpecs(specs) {
				if _, err := probe.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
			}
			if holisticCapHit(probe.Converge()) {
				capHits++
			}
			batchEng, seqEng := newEngine(), newEngine()
			bds, err := decideBatch(batchEng, copySpecs(specs), true)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := NewShardedController(network.New(topo), cfg)
			if err != nil {
				t.Fatal(err)
			}
			shds, err := sharded.RequestBatch(copySpecs(specs))
			if err != nil {
				t.Fatal(err)
			}
			for i, fs := range copySpecs(specs) {
				sd, err := decide(seqEng, fs, true)
				if err != nil {
					t.Fatal(err)
				}
				if bds[i].Admitted != sd.Admitted || shds[i].Admitted != sd.Admitted {
					t.Fatalf("seed %d, cap %d, spec %d (%s): batch=%v sharded=%v seq=%v",
						seed, iters, i, specs[i].Flow.Name, bds[i].Admitted, shds[i].Admitted, sd.Admitted)
				}
			}
			if n := seqEng.Network().NumFlows(); batchEng.Network().NumFlows() != n || sharded.NumFlows() != n {
				t.Fatalf("seed %d, cap %d: resident counts batch=%d sharded=%d seq=%d", seed, iters,
					batchEng.Network().NumFlows(), sharded.NumFlows(), n)
			}
		}
	}
	if capHits == 0 {
		t.Fatal("no cap stopped the staged batch short; the fallback went unexercised")
	}
}

// TestBatchMatchesSequentialIndustrialRing replays the shipped
// industrial-ring scenario's flows — tripled with unique names so the
// ring saturates and rejections occur — as one batch vs one-by-one vs
// cold.
func TestBatchMatchesSequentialIndustrialRing(t *testing.T) {
	sc, err := config.Load("../../scenarios/industrial-ring.json")
	if err != nil {
		t.Fatal(err)
	}
	full, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	var specs []*network.FlowSpec
	for rep := 0; rep < 3; rep++ {
		for _, fs := range full.Flows() {
			c := *fs
			flow := *fs.Flow
			flow.Name = fmt.Sprintf("%s-rep%d", fs.Flow.Name, rep)
			c.Flow = &flow
			specs = append(specs, &c)
		}
	}
	// Cross-ring heavy video (~53 Mbit/s each): several of them share the
	// 100 Mbit/s backbone, so the tail of the batch must be evicted.
	for i := 0; i < 5; i++ {
		src := network.NodeID(fmt.Sprintf("h%d_0", i%6))
		dst := network.NodeID(fmt.Sprintf("h%d_1", (i+3)%6))
		route, err := full.Topo.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, &network.FlowSpec{
			Flow:     trace.CBRVideo(fmt.Sprintf("heavy%d", i), 200000, 30*units.Millisecond, 250*units.Millisecond),
			Route:    route,
			Priority: 1,
		})
	}
	runBatchDifferential(t, full.Topo, specs, 7)
}

// TestBatchMatchesSequentialVideoMix runs the differential property on
// the video-mix generator: a closure-rich star of per-switch streams
// plus random cross-switch requests, so the sharded variant exercises
// many shards and a few fusions in one run.
func TestBatchMatchesSequentialVideoMix(t *testing.T) {
	topo, base, err := network.VideoMix(4, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []network.NodeID
	for s := 0; s < 4; s++ {
		for h := 0; h < 3; h++ {
			hosts = append(hosts, network.NodeID(fmt.Sprintf("h%d_%d", s, h)))
		}
	}
	r := rand.New(rand.NewSource(21))
	specs := append([]*network.FlowSpec{}, base...)
	specs = append(specs, batchSpecs(t, r, topo, hosts, 10, "vm-")...)
	runBatchDifferential(t, topo, specs, 6)
}
