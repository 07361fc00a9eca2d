package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// TestResidentsMatchCold replays the generator traces and the campus
// stream trace through the sharded controller — one request at a time,
// and in batches of 3 — and through the cold referee fed the same spec
// pointers one by one. Whenever no batch is pending, the controller's
// resident registry must list exactly the cold network's flows, pointer
// for pointer and in the same order, and NumResidents must count them.
// Under -short only the first half of each trace is replayed.
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
				}
			})
		}
	}
}
