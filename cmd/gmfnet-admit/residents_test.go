package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// TestResidentsMatchCold replays the generator traces and the campus
// stream trace through the sharded controller — one request at a time,
// and in batches of 3 — and through the cold referee fed the same spec
// pointers one by one. Whenever no batch is pending, the controller's
// resident registry must list exactly the cold network's flows, pointer
// for pointer and in the same order, NumResidents must count them, and
// the shard partition must agree with the registry and the cold
// network's closures (checkPartition). Under -short only the first half of each trace is
// replayed.
func TestResidentsMatchCold(t *testing.T) {
	for _, trace := range []string{"backbone", "clos", "fronthaul", "stream"} {
		for _, batch := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/batch%d", trace, batch), func(t *testing.T) {
				h, ops, err := workload.LoadTrace(filepath.Join("testdata", trace+".trace"))
				if err != nil {
					t.Fatal(err)
				}
				if testing.Short() {
					ops = ops[:len(ops)/2]
				}
				topo, _, err := h.Topo.Build()
				if err != nil {
					t.Fatal(err)
				}
				ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				cold, err := admission.NewColdController(network.New(topo), core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				var pending []*network.FlowSpec
				links := make(map[[2]network.NodeID]bool) // every directed link a request crossed
				flush := func() {
					if len(pending) == 0 {
						return
					}
					if _, err := ctl.RequestBatch(pending); err != nil {
						t.Fatal(err)
					}
					for _, fs := range pending {
						if _, err := cold.Request(fs); err != nil {
							t.Fatal(err)
						}
					}
					pending = pending[:0]
				}
				for i, op := range ops {
					switch op.Op {
					case "add":
						fs, err := op.Spec(topo)
						if err != nil {
							t.Fatal(err)
						}
						for h := 0; h+1 < len(fs.Route); h++ {
							links[[2]network.NodeID{fs.Route[h], fs.Route[h+1]}] = true
						}
						if batch > 0 {
							if pending = append(pending, fs); len(pending) >= batch {
								flush()
							}
							break
						}
						if _, err := ctl.Request(fs); err != nil {
							t.Fatal(err)
						}
						if _, err := cold.Request(fs); err != nil {
							t.Fatal(err)
						}
					case "del":
						flush()
						ok, err := ctl.Release(op.Name)
						if err != nil {
							t.Fatal(err)
						}
						if okCold, _ := cold.Release(op.Name); ok != okCold {
							t.Fatalf("op %d: release %s: controller %v, cold %v", i, op.Name, ok, okCold)
						}
					}
					if len(pending) > 0 {
						continue
					}
					got, want := ctl.Residents().Flows(), cold.Network().Flows()
					if len(got) != len(want) || ctl.NumResidents() != len(want) {
						t.Fatalf("op %d: registry lists %d residents, NumResidents %d, cold network %d", i, len(got), ctl.NumResidents(), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("op %d: resident %d is %q, cold network has %q", i, j, got[j].Flow.Name, want[j].Flow.Name)
						}
					}
					checkPartition(t, i, ctl, cold.Network(), links, i%16 == 15 || i == len(ops)-1)
				}
			})
		}
	}
}

// checkPartition holds the controller's shards to its registry and to
// the cold network's interference closures after op, once the queued
// departures are applied: the shards hold exactly the residents, each
// in one shard; every link a request crossed routes a one-link probe
// (Place, then Done) to the shard holding that link's residents, or to
// a fresh shard when none is left on it; and every shard's flow set is
// a union of whole closures. With resplit, NumShards re-splits first
// and the shards must be the closures one for one.
func checkPartition(t *testing.T, op int, ctl *admission.ShardedController, cold *network.Network, links map[[2]network.NodeID]bool, resplit bool) {
	t.Helper()
	if resplit {
		if n, want := ctl.NumShards(), cold.NumClosures(); n != want {
			t.Fatalf("op %d: NumShards %d, cold network has %d closures", op, n, want)
		}
	}
	se := ctl.Sharded()
	shards := se.Shards()
	shardOf := make(map[*network.FlowSpec]int)
	count := make(map[*network.FlowSpec]int)
	for k, e := range shards {
		for _, fs := range e.Network().Flows() {
			if j, ok := shardOf[fs]; ok && j != k {
				t.Fatalf("op %d: %q is in shards %d and %d", op, fs.Flow.Name, j, k)
			}
			shardOf[fs] = k
			count[fs]++
		}
	}
	holder := make(map[[2]network.NodeID]int)
	for _, fs := range se.Residents().Flows() {
		count[fs]--
		for h := 0; h+1 < len(fs.Route); h++ {
			holder[[2]network.NodeID{fs.Route[h], fs.Route[h+1]}] = shardOf[fs]
		}
	}
	for fs, n := range count {
		if n != 0 {
			t.Fatalf("op %d: the shards hold %q %+d times more often than the registry", op, fs.Flow.Name, n)
		}
	}
	probe := &gmf.Flow{Name: "probe"}
	for key := range links {
		p, err := se.Place(&network.FlowSpec{Flow: probe, Route: key[:]})
		if err != nil {
			t.Fatal(err)
		}
		want, ok := holder[key]
		if !ok {
			want = -1 // no resident: a fresh shard
		}
		if got := slices.Index(shards, p.Engine()); got != want {
			t.Fatalf("op %d: link %s->%s routes to shard %d, want %d", op, key[0], key[1], got, want)
		}
		p.Done()
	}
	covered := make([]int, len(shards))
	for c, members := range cold.Closures() {
		k := shardOf[cold.Flow(members[0])]
		for _, j := range members {
			if shardOf[cold.Flow(j)] != k {
				t.Fatalf("op %d: cold closure %d spans shards %d and %d", op, c, k, shardOf[cold.Flow(j)])
			}
		}
		covered[k] += len(members)
	}
	// With as many shards as closures, each shard — never empty, and a
	// union of whole closures — is exactly one closure.
	for k, e := range shards {
		if covered[k] != e.Network().NumFlows() || covered[k] == 0 {
			t.Fatalf("op %d: shard %d holds %d flows, its closures %d", op, k, e.Network().NumFlows(), covered[k])
		}
	}
}
