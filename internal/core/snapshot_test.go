package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// TestSnapshotUndoMatchesClone is the randomized differential test for the
// undo-log rollback: at every snapshot point the jitter arena is also
// deep-copied with the clone oracle the journal replaced; after a burst of
// tentative admissions and analyses, Restore must leave the arena
// bit-identical to that deep copy.
func TestSnapshotUndoMatchesClone(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo, hosts := randomEngineTopo(t, r)
			eng, err := NewEngine(network.New(topo), Config{})
			if err != nil {
				t.Fatal(err)
			}
			// Converge a base population so snapshots carry warm state.
			for op := 0; op < 5; op++ {
				fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("base%d-%d", seed, op))
				if _, err := eng.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.Analyze(); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				oracle := eng.js.clone()
				numFlows := eng.Network().NumFlows()
				snap := eng.Snapshot()
				adds := 1 + r.Intn(3)
				for a := 0; a < adds; a++ {
					fs := randomFlowSpec(t, r, topo, hosts, fmt.Sprintf("tent%d-%d-%d", seed, round, a))
					if _, err := eng.AddFlow(fs); err != nil {
						t.Fatal(err)
					}
					if r.Intn(2) == 0 {
						if _, err := eng.Analyze(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := eng.Analyze(); err != nil {
					t.Fatal(err)
				}
				if err := eng.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if eng.Network().NumFlows() != numFlows {
					t.Fatalf("round %d: %d flows after restore, want %d", round, eng.Network().NumFlows(), numFlows)
				}
				if eng.js == nil {
					t.Fatal("restore dropped warm state")
				}
				if !eng.js.equalAssignment(oracle) {
					t.Fatalf("round %d: undo-log rollback differs from deep-copy clone", round)
				}
				// The engine must keep working after the rollback.
				if _, err := eng.Analyze(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotOnceSemantics pins the token contract: a snapshot is
// restorable at most once, and taking a newer snapshot invalidates it.
func TestSnapshotOnceSemantics(t *testing.T) {
	topo := engineTopo(t)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddFlow(voipOn("base", "a1", "sA", "a2")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if _, err := eng.AddFlow(voipOn("t1", "a1", "sA", "a3")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(snap); err == nil {
		t.Fatal("second restore of the same snapshot succeeded")
	}
	old := eng.Snapshot()
	_ = eng.Snapshot()
	if err := eng.Restore(old); err == nil {
		t.Fatal("restoring a superseded snapshot succeeded")
	}
}

// TestSnapshotDiscard: discarding the live snapshot disarms the journal
// (no more undo entries accumulate) and consumes the token; discarding a
// superseded token is a no-op.
func TestSnapshotDiscard(t *testing.T) {
	topo := engineTopo(t)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddFlow(voipOn("base", "a1", "sA", "a2")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if !eng.js.journalOn {
		t.Fatal("snapshot did not arm the journal")
	}
	eng.Discard(snap)
	if eng.js.journalOn {
		t.Fatal("discard left the journal armed")
	}
	if err := eng.Restore(snap); err == nil {
		t.Fatal("restore of a discarded snapshot succeeded")
	}
	if _, err := eng.AddFlow(voipOn("more", "a2", "sA", "a3")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if len(eng.js.journal) != 0 {
		t.Fatalf("journal accumulated %d entries after discard", len(eng.js.journal))
	}
	// A dead token must not disarm the journal of a newer snapshot.
	live := eng.Snapshot()
	eng.Discard(snap)
	if !eng.js.journalOn {
		t.Fatal("stale discard disarmed the live snapshot's journal")
	}
	if err := eng.Restore(live); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveFlowReindexChangedList is the regression test for the
// pre-arena bug: removeFlowReindex dropped per-frame slots but left the
// changed-flow worklist unshifted, so stale flow indices could leak into
// the next delta worklist after a departure.
func TestRemoveFlowReindexChangedList(t *testing.T) {
	topo := engineTopo(t)
	nw := network.New(topo)
	for _, fs := range []*network.FlowSpec{
		voipOn("f0", "a1", "sA", "a2"),
		voipOn("f1", "a2", "sA", "a3"),
		voipOn("f2", "b1", "sB", "b2"),
	} {
		if _, err := nw.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	js := newJitterState(nw, true)
	js.set(1, 0, 0, 2*ms)
	js.set(2, 0, 0, 3*ms)
	before := js.get(2, 0, 0)
	nw.RemoveFlow(0)
	js.removeFlowReindex(0)
	if js.numFlows() != 2 {
		t.Fatalf("blocks = %d, want 2", js.numFlows())
	}
	if got := js.get(1, 0, 0); got != before {
		t.Fatalf("shifted flow slot = %v, want %v", got, before)
	}
	if len(js.changedList) != 2 {
		t.Fatalf("changedList = %v, want two entries", js.changedList)
	}
	for _, j := range js.changedList {
		if j < 0 || j >= js.numFlows() {
			t.Fatalf("stale flow index %d leaked into the worklist (flows: %d)", j, js.numFlows())
		}
		if !js.changedMark[j] {
			t.Fatalf("changedList/changedMark out of sync at %d", j)
		}
	}
}

// TestEngineInterleavedRemoveAndDelta interleaves departures with delta
// analyses and asserts the engine stays bound-identical to a cold
// analysis — the end-to-end guard for the worklist reindexing above.
func TestEngineInterleavedRemoveAndDelta(t *testing.T) {
	topo := engineTopo(t)
	eng, err := NewEngine(network.New(topo), Config{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []*network.FlowSpec{
		voipOn("a1a2", "a1", "sA", "a2"),
		voipOn("a2a3", "a2", "sA", "a3"),
		voipOn("cross", "a1", "sA", "sB", "b2"),
		voipOn("b1b2", "b1", "sB", "b2"),
		voipOn("b2b3", "b2", "sB", "b3"),
	}
	for _, fs := range specs {
		if _, err := eng.AddFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	live := append([]*network.FlowSpec(nil), specs...)
	for _, i := range []int{2, 0} {
		if err := eng.RemoveFlow(i); err != nil {
			t.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
		// Delta-analyse right after the departure: a stale (unshifted)
		// worklist entry would address the wrong — or a vanished — flow.
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
}

// clone deep-copies the state, without its journal and with an empty
// memo. The undo-log restore path replaced it in the engine; it is
// the oracle for differential tests asserting that undo rollback is
// bit-identical to a deep copy.
func (js *jitterState) clone() *jitterState {
	out := &jitterState{
		blocks:      make([]flowBlock, len(js.blocks)),
		arena:       append([]units.Time(nil), js.arena...),
		memoOn:      js.memoOn,
		memo:        make([]memoSlot, len(js.arena)),
		lastChange:  make([]uint64, len(js.lastChange)),
		extraMax:    append([]units.Time(nil), js.extraMax...),
		extraValid:  append([]bool(nil), js.extraValid...),
		changed:     js.changed,
		changedMark: append([]bool(nil), js.changedMark...),
		changedList: append([]int(nil), js.changedList...),
	}
	copy(out.blocks, js.blocks)
	return out
}
