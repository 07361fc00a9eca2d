package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gmfnet/internal/network"
)

// sameAssignment compares two jitter states, either of which may be
// nil: bit-identical arena contents and layout (equalAssignment) and the
// same pipeline per flow.
func sameAssignment(a, b *jitterState) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !a.equalAssignment(b) {
		return false
	}
	for j := range a.blocks {
		ba, bb := &a.blocks[j], &b.blocks[j]
		if ba.n != bb.n || len(ba.rids) != len(bb.rids) {
			return false
		}
		for pos := range ba.rids {
			if ba.rids[pos] != bb.rids[pos] {
				return false
			}
			for k := 0; k < int(ba.n); k++ {
				if a.get(j, pos, k) != b.get(j, pos, k) {
					return false
				}
			}
		}
	}
	return true
}

// flowNames lists the network's flow names in index order.
func flowNames(nw *network.Network) []string {
	out := make([]string, nw.NumFlows())
	for i := range out {
		out[i] = nw.Flow(i).Flow.Name
	}
	return out
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzSnapshotRestore drives random interleavings of AddFlow, RemoveFlow,
// Analyze, Snapshot, Restore and Discard through the engine and checks
// every Restore against a deep-clone oracle taken at Snapshot time: the
// jitter assignment, the flow statuses and the verdict counters must
// round-trip bit-identically, and the network's flow list must be
// exactly the snapshot's. After every operation the verdict counters
// must equal a scan of the statuses. Inside a window a removal that picks
// a flow older than the snapshot must be refused and falls on a flow the
// window added instead: removals of those between Snapshot and Restore,
// with journaled writes before and after them, are the interesting
// interleavings.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 1, 4})             // remove, snapshot, add, analyze, refused remove, restore
	f.Add([]byte{0, 0, 2, 3, 1, 1, 2, 4, 2})       // two refused removals inside the window
	f.Add([]byte{3, 0, 5, 3, 1, 4, 0, 2})          // discard, re-snapshot, refused remove, restore
	f.Add([]byte{0, 3, 1, 3, 0, 4})                // superseding snapshot after a refused removal
	f.Add([]byte{0, 0, 0, 3, 2, 1, 0, 1, 2, 4, 2}) // churn with analyses mixed in
	f.Add([]byte{0, 2, 3, 0, 2, 7, 0, 2, 4, 2})    // a window-added flow departs between analyses
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // keep each case cheap
		}
		topo, hosts := fuzzTopo(t)
		eng, err := NewEngine(network.New(topo), Config{})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		var (
			snap        *Snapshot
			oracle      *jitterState
			oracleNames []string
			oracleStat  []flowStatus
			oracleCount [2]int
			nextFlow    int
		)
		for pc, b := range data {
			switch b % 6 {
			case 0: // add
				fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("f%d", nextFlow))
				nextFlow++
				if _, err := eng.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
			case 1: // remove
				removeFuzzed(t, fmt.Sprintf("op %d", pc), eng, snap, int(b/6))
			case 2: // analyze
				if _, err := eng.Analyze(); err != nil {
					t.Fatal(err)
				}
			case 3: // snapshot (supersedes any outstanding one)
				oracle = eng.js.clone()
				oracleNames = flowNames(eng.Network())
				oracleStat = statuses(eng)
				oracleCount = [2]int{eng.js.unsched, eng.js.errcnt}
				snap = eng.Snapshot()
			case 4: // restore
				if snap == nil {
					continue
				}
				if err := eng.Restore(snap); err != nil {
					t.Fatalf("op %d: restore: %v", pc, err)
				}
				if !sameNames(flowNames(eng.Network()), oracleNames) {
					t.Fatalf("op %d: flow list after restore = %v, want %v",
						pc, flowNames(eng.Network()), oracleNames)
				}
				if !sameAssignment(eng.js, oracle) {
					t.Fatalf("op %d: jitter assignment differs from deep-clone oracle", pc)
				}
				if got := statuses(eng); !slices.Equal(got, oracleStat) {
					t.Fatalf("op %d: flow statuses after restore differ from the snapshot's:\ngot:  %+v\nwant: %+v",
						pc, got, oracleStat)
				}
				if got := [2]int{eng.js.unsched, eng.js.errcnt}; got != oracleCount {
					t.Fatalf("op %d: verdict counters after restore = %v, want %v", pc, got, oracleCount)
				}
				snap, oracle, oracleNames, oracleStat = nil, nil, nil, nil
			case 5: // discard
				eng.Discard(snap)
				snap, oracle, oracleNames, oracleStat = nil, nil, nil, nil
			}
			checkCounters(t, fmt.Sprintf("op %d", pc), eng)
		}
		// The engine must still agree with a cold analysis at the end.
		res, err := eng.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		ref := network.New(topo)
		for _, fs := range eng.Network().Flows() {
			if _, err := ref.AddFlow(fs); err != nil {
				t.Fatal(err)
			}
		}
		an, err := NewAnalyzer(ref, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := an.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, res, cold)
	})
}

// removeFuzzed removes flow pick modulo the flow count. Under the live
// snapshot s a flow older than s must be refused with the flow list
// unchanged; the removal then falls on a flow the window added, if any.
func removeFuzzed(t *testing.T, ctx string, eng *Engine, s *Snapshot, pick int) {
	t.Helper()
	n := eng.Network().NumFlows()
	if n == 0 {
		return
	}
	i := pick % n
	if s != nil && i < s.mark.numFlows {
		names := flowNames(eng.Network())
		if err := eng.RemoveFlow(i); err == nil {
			t.Fatalf("%s: removing flow %d of the %d the snapshot holds succeeded", ctx, i, s.mark.numFlows)
		}
		if !sameNames(flowNames(eng.Network()), names) {
			t.Fatalf("%s: a refused removal changed the flow list", ctx)
		}
		if n == s.mark.numFlows {
			return
		}
		i = s.mark.numFlows + pick%(n-s.mark.numFlows)
	}
	if err := eng.RemoveFlow(i); err != nil {
		t.Fatal(err)
	}
}

// fuzzTopo is a fixed two-switch topology for the fuzz target: small
// enough that each case is fast, rich enough that flows interfere across
// the backbone.
func fuzzTopo(t *testing.T) (*network.Topology, []network.NodeID) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	return randomEngineTopo(t, r)
}

// TestSnapshotRestoreAcrossRemovals is the deterministic slice of the
// fuzz property that runs on every plain `go test`: bursts of tentative
// admissions and departures of the flows they added inside one snapshot
// window must roll back bit-identically to the deep-clone oracle, and
// the restored engine must keep matching a cold analysis.
func TestSnapshotRestoreAcrossRemovals(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo, hosts := randomEngineTopo(t, r)
			eng, err := NewEngine(network.New(topo), Config{})
			if err != nil {
				t.Fatal(err)
			}
			var live []*network.FlowSpec
			for op := 0; op < 6; op++ {
				fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("base%d-%d", seed, op))
				if _, err := eng.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
				live = append(live, fs)
			}
			if _, err := eng.Analyze(); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				oracle := eng.js.clone()
				names := flowNames(eng.Network())
				snap := eng.Snapshot()
				for op := 0; op < 2+r.Intn(4); op++ {
					if n := eng.Network().NumFlows(); n > len(names) && r.Intn(2) == 0 {
						if err := eng.RemoveFlow(len(names) + r.Intn(n-len(names))); err != nil {
							t.Fatal(err)
						}
					} else {
						fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("tent%d-%d-%d", seed, round, op))
						if _, err := eng.AddFlow(fs); err != nil {
							t.Fatal(err)
						}
					}
					if r.Intn(2) == 0 {
						if _, err := eng.Analyze(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := eng.Restore(snap); err != nil {
					t.Fatalf("round %d: restore across removals: %v", round, err)
				}
				if !sameNames(flowNames(eng.Network()), names) {
					t.Fatalf("round %d: flow list %v, want %v", round, flowNames(eng.Network()), names)
				}
				if !sameAssignment(eng.js, oracle) {
					t.Fatalf("round %d: rollback differs from deep-copy clone", round)
				}
				res, err := eng.Analyze()
				if err != nil {
					t.Fatal(err)
				}
				ref := network.New(topo)
				for _, fs := range live {
					if _, err := ref.AddFlow(fs); err != nil {
						t.Fatal(err)
					}
				}
				an, err := NewAnalyzer(ref, Config{})
				if err != nil {
					t.Fatal(err)
				}
				cold, err := an.Analyze()
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, res, cold)
			}
		})
	}
}
