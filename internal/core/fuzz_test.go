package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gmfnet/internal/network"
)

// sameAssignment compares two jitter states semantically: same flow
// count, same per-flow pipeline shape, and bit-identical slot values read
// through the block index. Unlike equalAssignment it is insensitive to
// arena layout, so it stays a valid oracle when tombstone compaction has
// re-based blocks between the clone and the comparison.
func sameAssignment(a, b *jitterState) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.numFlows() != b.numFlows() {
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
// jitter assignment, the live result headers and the verdict counters
// must round-trip bit-identically, and the network's flow list must be
// exactly the snapshot's. After every operation the verdict counters
// must equal a scan of the headers. This exercises the block-move
// (tombstone) journal and the header journal: removals between Snapshot
// and Restore are the interesting interleavings.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 1, 4})             // snapshot, add, remove, restore
	f.Add([]byte{0, 0, 2, 3, 1, 1, 2, 4, 2})       // two removals inside the window
	f.Add([]byte{3, 0, 5, 3, 1, 4, 0, 2})          // discard, re-snapshot, remove, restore
	f.Add([]byte{0, 3, 1, 3, 0, 4})                // superseding snapshot after a removal
	f.Add([]byte{0, 0, 0, 3, 2, 1, 0, 1, 2, 4, 2}) // churn with analyses mixed in
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
			oracleHdrs  []FlowResult
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
				if n := eng.Network().NumFlows(); n > 0 {
					if err := eng.RemoveFlow(int(b/6) % n); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // analyze
				if _, err := eng.Analyze(); err != nil {
					t.Fatal(err)
				}
			case 3: // snapshot (supersedes any outstanding one)
				if eng.js != nil {
					oracle = eng.js.clone()
				} else {
					oracle = nil
				}
				oracleNames = flowNames(eng.Network())
				oracleHdrs = append([]FlowResult(nil), eng.flows...)
				oracleCount = [2]int{eng.unsched, eng.errcnt}
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
				if len(eng.flows) != len(oracleHdrs) || len(eng.flows) > 0 && !reflect.DeepEqual(eng.flows, oracleHdrs) {
					t.Fatalf("op %d: result headers after restore differ from the snapshot's:\ngot:  %+v\nwant: %+v",
						pc, eng.flows, oracleHdrs)
				}
				if got := [2]int{eng.unsched, eng.errcnt}; got != oracleCount {
					t.Fatalf("op %d: verdict counters after restore = %v, want %v", pc, got, oracleCount)
				}
				snap, oracle, oracleNames, oracleHdrs = nil, nil, nil, nil
			case 5: // discard
				eng.Discard(snap)
				snap, oracle, oracleNames, oracleHdrs = nil, nil, nil, nil
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
// admissions AND departures inside one snapshot window must roll back
// bit-identically to the deep-clone oracle, and the restored engine must
// keep matching a cold analysis.
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
					if eng.Network().NumFlows() > 0 && r.Intn(2) == 0 {
						if err := eng.RemoveFlow(r.Intn(eng.Network().NumFlows())); err != nil {
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
