package core

import (
	"fmt"
	"math/rand"
	"slices"
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
	if eng.js.journalEnd == 0 {
		t.Fatal("snapshot did not arm the journal")
	}
	eng.Discard(snap)
	if eng.js.journalEnd != 0 {
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
	if eng.js.journalEnd == 0 {
		t.Fatal("stale discard disarmed the live snapshot's journal")
	}
	if err := eng.Restore(live); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveFlowRefusedBeforeSnapshot pins the snapshot window's rule:
// under a live snapshot RemoveFlow refuses every flow older than the
// snapshot and changes nothing — flow list, jitter assignment (against
// the clone oracle), flow statuses, verdict counters, pending work —
// while a flow the window added departs as usual. The evictBatch-shaped
// window around it (stage, converge, cut back, re-stage, converge) still
// restores bit-identically.
func TestRemoveFlowRefusedBeforeSnapshot(t *testing.T) {
	eng, gen := warmFixture(t)
	type state struct {
		names  []string
		js     *jitterState
		status []flowStatus
		counts [2]int
	}
	capture := func() state {
		return state{flowNames(eng.Network()), eng.js.clone(), statuses(eng), [2]int{eng.js.unsched, eng.js.errcnt}}
	}
	same := func(ctx string, want state) {
		t.Helper()
		got := capture()
		if !sameNames(got.names, want.names) {
			t.Fatalf("%s: flow list %v, want %v", ctx, got.names, want.names)
		}
		if !sameAssignment(eng.js, want.js) {
			t.Fatalf("%s: jitter assignment differs from the clone oracle", ctx)
		}
		if !slices.Equal(got.status, want.status) {
			t.Fatalf("%s: flow statuses differ:\ngot:  %+v\nwant: %+v", ctx, got.status, want.status)
		}
		if got.counts != want.counts {
			t.Fatalf("%s: verdict counters %v, want %v", ctx, got.counts, want.counts)
		}
	}
	atSnap := capture()
	n0 := eng.Network().NumFlows()
	snap := eng.Snapshot()
	for k := 0; k < 2; k++ {
		if _, err := eng.AddFlow(gen(fmt.Sprintf("staged%d", k), k == 0)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Converge()
	staged := capture()
	for i := 0; i < n0; i++ {
		if err := eng.RemoveFlow(i); err == nil {
			t.Fatalf("removing flow %d, older than the snapshot of %d flows, succeeded", i, n0)
		}
		same(fmt.Sprintf("after refusing flow %d", i), staged)
		if eng.descending || len(eng.js.dirty) != 0 || !eng.valid {
			t.Fatalf("after refusing flow %d: descending=%v dirty=%v valid=%v", i, eng.descending, eng.js.dirty, eng.valid)
		}
	}
	if err := eng.RemoveFlow(n0); err != nil {
		t.Fatalf("removing the first window-added flow: %v", err)
	}
	if _, err := eng.AddFlow(gen("restaged", true)); err != nil {
		t.Fatal(err)
	}
	checkCold(t, "restaged", eng)
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	same("after restore", atSnap)
	checkCold(t, "after restore", eng)
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
		if !js.blocks[j].changed {
			t.Fatalf("changedList and the changed marks out of sync at %d", j)
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
		changedList: append([]int(nil), js.changedList...),
		dirty:       append([]int(nil), js.dirty...),
		unsched:     js.unsched,
		errcnt:      js.errcnt,
	}
	copy(out.blocks, js.blocks)
	return out
}
