package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// checkMemo asserts the stage memo's contract on a converged-or-pending
// engine whose jitter state is aligned with its network: every current
// entry equals a fresh evaluation of its stage against the current
// arena, the entry jitter after it is the one it produced, and a flow
// whose every entry is current carries a header that a pass would
// rewrite byte-identically — what makes skipping that pass exact.
func checkMemo(t *testing.T, ctx string, e *Engine) {
	t.Helper()
	if !e.valid || e.js == nil {
		return // the state is stale and the next analysis rebuilds it
	}
	js := e.js
	for j := range js.blocks {
		b := &js.blocks[j]
		fs := e.an.nw.Flow(j)
		settled := true
		for pos := range b.rids {
			for k := 0; k < int(b.n); k++ {
				if pos == 0 && js.get(j, 0, k) != fs.Flow.Frames[k].Jitter {
					t.Fatalf("%s: flow %q frame %d enters at %v, source jitter %v",
						ctx, fs.Flow.Name, k, js.get(j, 0, k), fs.Flow.Frames[k].Jitter)
				}
				off := b.base + int32(pos)*b.n + int32(k)
				if !js.current(b, pos, off) {
					settled = false
					continue
				}
				r, err := e.an.stage(j, k, pos, js)
				if err != nil || r != js.memo[off].r {
					t.Fatalf("%s: flow %q stage %d frame %d: memo %v, fresh %v (err %v)",
						ctx, fs.Flow.Name, pos, k, js.memo[off].r, r, err)
				}
				if pos+1 < len(b.rids) {
					if got, want := js.get(j, pos+1, k), units.SaturatingAdd(js.get(j, pos, k), r); got != want {
						t.Fatalf("%s: flow %q stage %d frame %d: entry jitter %v after a current memo, want %v",
							ctx, fs.Flow.Name, pos+1, k, got, want)
					}
				}
			}
		}
		if !settled {
			continue
		}
		hdr := &e.flows[j]
		if hdr.Err != nil || len(hdr.Frames) != int(b.n) {
			t.Fatalf("%s: settled flow %q has header err %v, %d frames", ctx, fs.Flow.Name, hdr.Err, len(hdr.Frames))
		}
		for k := range hdr.Frames {
			for pos, st := range hdr.Frames[k].Stages {
				off := b.base + int32(pos)*b.n + int32(k)
				if st.Response != js.memo[off].r || st.EntryJitter != js.get(j, pos, k) {
					t.Fatalf("%s: settled flow %q stage %d frame %d: header %+v, memo %v entry %v",
						ctx, fs.Flow.Name, pos, k, st, js.memo[off].r, js.get(j, pos, k))
				}
			}
		}
	}
}

// FuzzStageMemo drives admission-shaped scripts through a ShardedEngine
// on the small Clos and the crossing ring of fuzzRouter: requests
// (Place, which fuses the shards a newcomer bridges, then Snapshot,
// AddFlow and Analyze, admitted or rolled back by Restore), departures,
// departures inside a snapshot window (rolled back by Restore or
// committed by Discard), Resplit and cold checks. After every step each shard's stage memo
// must hold only entries a fresh evaluation reproduces (checkMemo), and
// every shard's bounds must equal the cold Analyzer's.
func FuzzStageMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 4, 0, 4})          // clos: requests fuse shards, a departure, a request
	f.Add([]byte{0, 0, 0, 6, 2, 3, 8, 5, 0, 2, 3})    // clos: rejected request, departure, resplit
	f.Add([]byte{1, 0, 0, 0, 2, 0, 2, 1, 3, 4, 5})    // ring: cycles form and break
	f.Add([]byte{1, 6, 0, 12, 0, 2, 2, 7, 3, 0, 1})   // ring: rollbacks between departures
	f.Add([]byte{0, 0, 12, 0, 18, 0, 24, 2, 2, 2, 3}) // clos: departures drain shards
	f.Add([]byte{1, 0, 0, 0, 0, 4, 10, 2, 0, 8, 4})   // ring: departures in a snapshot window, cold resets
	f.Add([]byte{0, 0, 0, 0, 10, 0, 16, 4, 2, 0})     // clos: committed departures in snapshot windows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 48 {
			data = data[:48]
		}
		topo, route := fuzzRouter(t, data[0]%2 == 1, rand.New(rand.NewSource(int64(len(data)))))
		se, err := NewShardedEngine(network.New(topo), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var resident []*network.FlowSpec
		check := func(ctx string) {
			t.Helper()
			for _, e := range se.Shards() {
				checkMemo(t, ctx, e)
			}
			for _, e := range se.Shards() {
				checkCold(t, ctx, e)
				checkMemo(t, ctx+" (converged)", e)
			}
		}
		for pc, b := range data[1:] {
			ctx := fmt.Sprintf("op %d", pc)
			switch b % 6 {
			case 0, 1: // a request: admitted when schedulable (0) or rolled back (1)
				name := fmt.Sprintf("f%d", pc)
				fl := trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond})
				if b/6%3 == 0 {
					fl = trace.CBRVideo(name, 30000, 20*units.Millisecond, 200*units.Millisecond)
				}
				fs := &network.FlowSpec{Flow: fl, Route: route(), Priority: network.Priority(b / 18 % 3)}
				p, err := se.Place(fs)
				if err != nil {
					t.Fatal(err)
				}
				eng := p.Engine()
				snap := eng.Snapshot()
				if _, err := eng.AddFlow(fs); err != nil {
					t.Fatal(err)
				}
				checkMemo(t, ctx+" (added)", eng)
				res, err := eng.Analyze()
				if err != nil {
					t.Fatal(err)
				}
				checkMemo(t, ctx+" (staged)", eng)
				if b%6 == 0 && res.Schedulable() {
					eng.Discard(snap)
					p.Commit(fs)
					resident = append(resident, fs)
				} else {
					if err := eng.Restore(snap); err != nil {
						t.Fatal(err)
					}
					p.Commit()
				}
			case 2:
				if len(resident) > 0 {
					at := int(b/6) % len(resident)
					if err := se.Remove(resident[at]); err != nil {
						t.Fatal(err)
					}
					resident = append(resident[:at], resident[at+1:]...)
				}
			case 3:
				if _, err := se.Resplit(); err != nil {
					t.Fatal(err)
				}
			case 4: // a departure inside a snapshot window: rolled back, or committed
				if len(resident) > 0 {
					at := int(b/6) % len(resident)
					fs := resident[at]
					s := se.routes[flowResources(fs)[0]]
					nw := s.eng.Network()
					i := 0
					for nw.Flow(i) != fs {
						i++
					}
					snap := s.eng.Snapshot()
					if err := s.eng.RemoveFlow(i); err != nil {
						t.Fatal(err)
					}
					checkMemo(t, ctx+" (removed)", s.eng)
					if _, err := s.eng.Analyze(); err != nil {
						t.Fatal(err)
					}
					checkMemo(t, ctx+" (departed)", s.eng)
					if b/6%2 == 0 {
						if err := s.eng.Restore(snap); err != nil {
							t.Fatal(err)
						}
						break
					}
					// Committed: Discard compacts the tombstone away;
					// the shard map follows as in Remove.
					s.eng.Discard(snap)
					se.disown(s, specKeys(fs))
					if nw.NumFlows() == 0 {
						se.drop(s)
					}
					resident = append(resident[:at], resident[at+1:]...)
				}
			}
			check(ctx)
		}
		if n := se.NumFlows(); n != len(resident) {
			t.Fatalf("%d flows in the shards, %d admitted", n, len(resident))
		}
	})
}

// stageMemoShare is the least share of stage evaluations the memo must
// serve over one departure and one request in bigClosure's 240-flow
// closure. Measured 0.590 on the reference fixture.
const stageMemoShare = 0.55

// TestStageMemoShare pins that the memo is live where it pays: in a
// large feed-forward closure a departure plus the re-request of the
// departed flow must be served mostly from the memo (skipped passes
// count their stages as served), and the engine must still equal the
// cold analysis.
func TestStageMemoShare(t *testing.T) {
	eng := bigClosure(t, 240)
	nw := eng.Network()
	at := nw.NumFlows() / 2
	fs := nw.Flow(at)
	eng.js.served, eng.js.evaluated = 0, 0
	if err := eng.RemoveFlow(at); err != nil {
		t.Fatal(err)
	}
	if err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if _, err := eng.AddFlow(fs); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze()
	if err != nil || !res.Schedulable() {
		t.Fatalf("re-request not admitted (err %v)", err)
	}
	eng.Discard(snap)
	served, evaluated := eng.js.served, eng.js.evaluated
	share := float64(served) / float64(served+evaluated)
	t.Logf("departure + request in a %d-flow closure: %d stage evaluations served, %d computed (share %.3f)",
		nw.NumFlows(), served, evaluated, share)
	if share < stageMemoShare {
		t.Fatalf("memo served %.3f of the stage evaluations, want at least %.2f", share, stageMemoShare)
	}
	checkCold(t, "after departure and request", eng)
}
