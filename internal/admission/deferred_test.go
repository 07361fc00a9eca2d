package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
	"gmfnet/internal/workload"
)

// TestDeferredDepartureMatchesEager replays synthesized traces on the
// three production generators through the sharded controller, whose
// departures are claimed at once and removed lazily, and through the
// monolithic Controller, which removes eagerly. Flushes land at random
// points, so queued removals meet the next request, the next release,
// or a flush. After every op the verdicts match, the resident counter
// equals the monolithic resident count, and so do the shard flows net
// of the queued removals; after every flush NumFlows does too.
func TestDeferredDepartureMatchesEager(t *testing.T) {
	for _, spec := range []workload.TopoSpec{
		{Kind: "clos", Switches: 4, Fanout: 2, Hosts: 3},
		{Kind: "fronthaul", Switches: 3, Fanout: 2, Hosts: 2},
		{Kind: "backbone", Switches: 3, Fanout: 2, Hosts: 2},
	} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Kind, seed), func(t *testing.T) {
				h, ops, err := workload.Synthesize(spec, workload.Config{
					Seed: seed, Requests: 240, Hold: 40, Local: 0.7, Heavy: 0.15,
					Tenants: 2, TenantChurn: 0.01,
				})
				if err != nil {
					t.Fatal(err)
				}
				topo, _, err := h.Topo.Build()
				if err != nil {
					t.Fatal(err)
				}
				mono, err := NewController(network.New(topo), core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				lazy, err := NewShardedController(network.New(topo), core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				queued, flushes := 0, 0
				for i := range ops {
					op := &ops[i]
					switch op.Op {
					case "add":
						fs, err := op.Spec(topo)
						if err != nil {
							t.Fatal(err)
						}
						cp := *fs
						md, err := mono.Request(&cp)
						if err != nil {
							t.Fatal(err)
						}
						ld, err := lazy.Request(fs)
						if err != nil {
							t.Fatal(err)
						}
						if md.Admitted != ld.Admitted {
							t.Fatalf("op %d add %s: eager=%v deferred=%v", i, op.Name, md.Admitted, ld.Admitted)
						}
					case "del":
						mok, err := mono.Release(op.Name)
						if err != nil {
							t.Fatal(err)
						}
						lok, err := lazy.Release(op.Name)
						if err != nil {
							t.Fatal(err)
						}
						if mok != lok {
							t.Fatalf("op %d del %s: eager=%v deferred=%v", i, op.Name, mok, lok)
						}
					default:
						continue
					}
					want := mono.NumFlows()
					queued += len(lazy.departing)
					if lazy.NumResidents() != want || lazy.se.NumFlows()-len(lazy.departing) != want {
						t.Fatalf("op %d: %d residents, %d shard flows - %d queued, want %d",
							i, lazy.NumResidents(), lazy.se.NumFlows(), len(lazy.departing), want)
					}
					if r.Intn(5) == 0 {
						flushes++
						if err := lazy.Flush(); err != nil {
							t.Fatal(err)
						}
						if got := lazy.NumFlows(); got != want {
							t.Fatalf("op %d flushed: NumFlows %d, want %d", i, got, want)
						}
					}
				}
				if queued == 0 || mono.Released() == 0 || mono.Rejected() == 0 {
					t.Fatalf("degenerate replay: %d queued, %d released, %d rejected",
						queued, mono.Released(), mono.Rejected())
				}
				want, err := mono.Engine().Analyze()
				if err != nil {
					t.Fatal(err)
				}
				checkShardedBounds(t, lazy, want)
				checkPartition(t, lazy)
				t.Logf("%d ops, %d flushes, %d releases, %d shards at the end",
					len(ops), flushes, mono.Released(), lazy.NumShards())
			})
		}
	}
}

// departureCycleAllocs caps one Release plus the next Request of a
// flow joining an existing closure, under RetainCounters: the claim,
// the queued removal (route lookup, closure scan, warm departure) and
// a full admission (placement, snapshot, delta analysis, view). It
// measures 42 objects with Go 1.24 at 100 and at 1 000 shards.
const departureCycleAllocs = 45

// oneFlowShards admits n one-flow residents r0 … r(n-1) on a 32-PoP
// backbone under RetainCounters, each in its own shard, and returns the
// controller with the spec maker that built them: spec(name, i) routes
// like r<i>, so it joins r<i>'s closure; specs four indices apart sit
// in different PoPs and share nothing.
func oneFlowShards(t *testing.T, n int) (*ShardedController, func(string, int) *network.FlowSpec) {
	t.Helper()
	topo, hosts, err := network.Backbone(32, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name string, i int) *network.FlowSpec {
		g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
		route, err := topo.Route(hosts[g*4+pair[0]], hosts[g*4+pair[1]])
		if err != nil {
			t.Fatal(err)
		}
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
	ctl.SetRetention(RetainCounters)
	for i := 0; i < n; i++ {
		if d, err := ctl.Request(spec(fmt.Sprintf("r%d", i), i)); err != nil || !d.Admitted {
			t.Fatalf("resident %d: %v %v", i, d.Admitted, err)
		}
	}
	if got := ctl.NumShards(); got != n {
		t.Fatalf("%d shards, want %d", got, n)
	}
	return ctl, spec
}

// TestDeferredDepartureAllocs pins that a departure costs O(closure):
// Release plus the next Request among ~100 and ~1 000 one-flow backbone
// shards allocate the same, small number of objects.
func TestDeferredDepartureAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{100, 1000} {
		ctl, spec := oneFlowShards(t, n)
		probe := spec("probe", 0) // joins r0's closure
		cycle := func() {
			if ok, err := ctl.Release("probe"); err != nil || !ok {
				t.Fatalf("release: %v %v", ok, err)
			}
			if d, err := ctl.Request(probe); err != nil || !d.Admitted {
				t.Fatalf("request: %v %v", d.Admitted, err)
			}
		}
		if _, err := ctl.Request(probe); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		got := testing.AllocsPerRun(100, cycle)
		t.Logf("%d shards: Release + Request allocates %.0f objects", n, got)
		counts = append(counts, got)
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocations depend on the shard count: %v", counts)
	}
	if counts[1] > departureCycleAllocs {
		t.Fatalf("Release + Request allocates %.0f objects, want at most %d", counts[1], departureCycleAllocs)
	}
}

// Allocation caps of one sharded batch cycle under RetainCounters among
// 1 000 one-flow backbone shards: RequestBatch, the Release of every
// admitted member, and the queued removals the next call applies. A
// batch decides its groups on the caller's goroutine, so the caps hold
// no goroutine or synchronisation cost. With Go 1.24 they measure 57
// objects for a one-spec batch and 220 for a four-group batch.
const (
	oneSpecBatchAllocs   = 60
	fourGroupBatchAllocs = 225
)

// raceEnabled is set in -race builds, whose instrumentation moves some
// values to the heap, so allocation caps do not apply there.
var raceEnabled bool

// TestShardedBatchAllocs pins the allocation cost of RequestBatch plus
// its releases, for a one-spec batch and for a batch of four specs in
// four disjoint closures (four groups).
func TestShardedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctl, spec := oneFlowShards(t, 1000)
	for _, c := range []struct {
		name  string
		batch []*network.FlowSpec
		max   int
	}{
		{"one-spec", []*network.FlowSpec{spec("probe", 0)}, oneSpecBatchAllocs},
		{"four-group", []*network.FlowSpec{spec("p0", 0), spec("p1", 4), spec("p2", 8), spec("p3", 12)}, fourGroupBatchAllocs},
	} {
		cycle := func() {
			ds, err := ctl.RequestBatch(c.batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range ds {
				if !d.Admitted {
					t.Fatalf("%s: %s rejected", c.name, c.batch[i].Flow.Name)
				}
				if ok, err := ctl.Release(c.batch[i].Flow.Name); err != nil || !ok {
					t.Fatalf("%s: release %s: %v %v", c.name, c.batch[i].Flow.Name, ok, err)
				}
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		got := testing.AllocsPerRun(100, cycle)
		t.Logf("%s batch + releases allocates %.0f objects", c.name, got)
		if got > float64(c.max) {
			t.Errorf("%s batch + releases allocates %.0f objects, want at most %d", c.name, got, c.max)
		}
	}
}
