package admission

import (
	"math/rand"
	"testing"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// The tests in this file drive ShardedController batches that span
// several interference groups — decided one after another on the
// caller's goroutine — and pin what the controller folds from them: the
// notify hook's order, the retention modes and the error contract.
// Equality of batch and one-by-one decisions is pinned by
// runBatchDifferential and the golden replay traces.

// checkPartition asserts that the shards partition exactly the
// controller's resident flows: every resident in exactly one shard, no
// strays. It applies queued departures first (through Sharded).
func checkPartition(t *testing.T, ctl *ShardedController) {
	t.Helper()
	want := make(map[*network.FlowSpec]bool)
	for _, q := range ctl.residents {
		for _, fs := range q {
			want[fs] = true
		}
	}
	got := make(map[*network.FlowSpec]int)
	for _, eng := range ctl.Sharded().Shards() {
		nw := eng.Network()
		for i := 0; i < nw.NumFlows(); i++ {
			got[nw.Flow(i)]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("partition holds %d flows, residents list %d", len(got), len(want))
	}
	for fs, n := range got {
		if n != 1 || !want[fs] {
			t.Fatalf("flow %q: %d copies across shards, resident=%v", fs.Flow.Name, n, want[fs])
		}
	}
}

// TestShardedBatchErrorContract pins malformed-input behavior: a bad batch
// fails with no decisions recorded, a bad single request returns its
// error, and the controller keeps working afterwards.
func TestShardedBatchErrorContract(t *testing.T) {
	topo, hosts, err := network.Ring(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	route, err := topo.Route(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	good := &network.FlowSpec{
		Flow:     trace.VoIP("good", trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
		Route:    route,
		RTP:      true,
		Priority: 2,
	}
	bad := &network.FlowSpec{
		Flow:  trace.VoIP("bad", trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
		Route: []network.NodeID{"nope1", "nope2"},
	}
	if _, err := ctl.RequestBatch([]*network.FlowSpec{good, bad}); err == nil {
		t.Fatal("batch with malformed spec: want validation error")
	}
	if n := len(ctl.Decisions()); n != 0 || ctl.Admitted()+ctl.Rejected() != 0 {
		t.Fatalf("failed batch recorded %d decisions", n)
	}
	if _, err := ctl.Request(bad); err == nil {
		t.Fatal("malformed single request: want error")
	}
	d, err := ctl.Request(good)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatal("feasible flow rejected after error")
	}
	if err := ctl.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if ctl.NumFlows() != 1 || ctl.NumShards() != 1 {
		t.Fatalf("NumFlows = %d, NumShards = %d, want 1 and 1", ctl.NumFlows(), ctl.NumShards())
	}
}

// TestShardedEmptyBatch pins the trivial edges: an empty batch decides
// nothing, and releasing an unknown name claims nothing and queues
// nothing.
func TestShardedEmptyBatch(t *testing.T) {
	topo, _, err := network.Ring(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ctl.RequestBatch(nil)
	if err != nil || ds != nil {
		t.Fatalf("empty RequestBatch = (%v, %v), want (nil, nil)", ds, err)
	}
	if ok, err := ctl.Release("ghost"); ok || err != nil {
		t.Fatalf("Release(ghost) = (%v, %v), want (false, nil)", ok, err)
	}
	if len(ctl.departing) != 0 || ctl.Released() != 0 {
		t.Fatalf("a miss queued %d departures, counted %d", len(ctl.departing), ctl.Released())
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRetentionCounters pins the lean retention mode the daemon
// and the load harness run under: decisions and departures are
// identical to RetainAll, the O(1) counters agree exactly, but no
// decision log — and no open analysis view — accumulates.
func TestShardedRetentionCounters(t *testing.T) {
	topo, hosts, err := network.Ring(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	specs := batchSpecs(t, r, topo, hosts, 48, "rt-")
	full, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lean.SetRetention(RetainCounters)
	admitted := 0
	for at := 0; at < len(specs); at += 4 {
		chunk := specs[at : at+4]
		var fds, lds []Decision
		if at%8 == 0 {
			// Alternate single requests and multi-group batches.
			for _, fs := range chunk {
				fd, err := full.Request(fs)
				if err != nil {
					t.Fatal(err)
				}
				cp := *fs
				ld, err := lean.Request(&cp)
				if err != nil {
					t.Fatal(err)
				}
				fds, lds = append(fds, fd), append(lds, ld)
			}
		} else {
			if fds, err = full.RequestBatch(chunk); err != nil {
				t.Fatal(err)
			}
			if lds, err = lean.RequestBatch(copySpecs(chunk)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range chunk {
			if fds[i].Admitted != lds[i].Admitted {
				t.Fatalf("spec %s: full=%v lean=%v", chunk[i].Flow.Name, fds[i].Admitted, lds[i].Admitted)
			}
			if lds[i].Result != nil || lds[i].View != nil {
				t.Fatalf("spec %s: lean decision kept an analysis", chunk[i].Flow.Name)
			}
			if fds[i].Admitted {
				admitted++
			}
		}
		if fds[0].Admitted {
			fok, _ := full.Release(chunk[0].Flow.Name)
			lok, _ := lean.Release(chunk[0].Flow.Name)
			if !fok || !lok {
				t.Fatalf("release %q: full=%v lean=%v", chunk[0].Flow.Name, fok, lok)
			}
		}
	}
	if full.Admitted() != admitted || full.Admitted() != lean.Admitted() ||
		full.Rejected() != lean.Rejected() || full.Released() != lean.Released() {
		t.Fatalf("counters: full %d/%d/%d, lean %d/%d/%d, want %d admitted",
			full.Admitted(), full.Rejected(), full.Released(),
			lean.Admitted(), lean.Rejected(), lean.Released(), admitted)
	}
	if full.Admitted()+full.Rejected() != len(specs) || len(full.Decisions()) != len(specs) {
		t.Fatalf("full log = %d decisions, counters %d, want %d",
			len(full.Decisions()), full.Admitted()+full.Rejected(), len(specs))
	}
	if n := len(lean.Decisions()); n != 0 {
		t.Fatalf("lean log = %d decisions, want none", n)
	}
	if lean.NumResidents() != lean.Admitted()-lean.Released() {
		t.Fatalf("residents %d != admitted %d - released %d",
			lean.NumResidents(), lean.Admitted(), lean.Released())
	}
	if lean.NumFlows() != lean.NumResidents() {
		t.Fatalf("shard flows %d != residents %d", lean.NumFlows(), lean.NumResidents())
	}
	checkPartition(t, lean)
}

// TestShardedNotifyOrder pins the notification hook that feeds
// gmfnet-admitd's subscription manager: every decided request fires
// exactly one event carrying the exact submitted spec pointer; a batch
// spanning several groups fires one event per member in request order; Release fires FoldReleased with the pointer that was
// admitted at claim time, before the removal it queues has run.
func TestShardedNotifyOrder(t *testing.T) {
	topo, hosts, err := network.Campus(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var evs []FoldEvent
	ctl.SetNotify(func(ev FoldEvent) { evs = append(evs, ev) })

	voip := func(name string, a, b int) *network.FlowSpec {
		route, err := topo.Route(hosts[a], hosts[b])
		if err != nil {
			t.Fatal(err)
		}
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 1,
			RTP:      true,
		}
	}
	heavy := func(name string, a, b int) *network.FlowSpec {
		route, err := topo.Route(hosts[a], hosts[b])
		if err != nil {
			t.Fatal(err)
		}
		return &network.FlowSpec{
			Flow:     trace.CBRVideo(name, 250000, 30*units.Millisecond, 250*units.Millisecond),
			Route:    route,
			Priority: 1,
		}
	}
	expect := func(step string, want []FoldEvent) {
		t.Helper()
		got := evs
		evs = nil
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d: %+v", step, len(got), len(want), got)
		}
		for i := range want {
			if got[i].Spec != want[i].Spec || got[i].Kind != want[i].Kind {
				t.Fatalf("%s: event %d = {%s %d}, want {%s %d}",
					step, i, got[i].Spec.Flow.Name, got[i].Kind,
					want[i].Spec.Flow.Name, want[i].Kind)
			}
		}
	}

	a := voip("a", 0, 1)
	if d, err := ctl.Request(a); err != nil || !d.Admitted {
		t.Fatalf("admit a: %+v %v", d, err)
	}
	expect("admit", []FoldEvent{{Spec: a, Kind: FoldAdmitted}})

	// Heavy CBR beside the VoIP call: rejected, still exactly one event.
	r := heavy("r", 0, 1)
	if d, err := ctl.Request(r); err != nil || d.Admitted {
		t.Fatalf("reject r: %+v %v", d, err)
	}
	expect("reject", []FoldEvent{{Spec: r, Kind: FoldRejected}})

	// b and c share switch 1's links; x runs the other way under switch
	// 0, disjoint from a: two groups, decided in turn, events in
	// request order.
	b, x, c := voip("b", 2, 3), voip("x", 1, 0), voip("c", 2, 3)
	ds, err := ctl.RequestBatch([]*network.FlowSpec{b, x, c})
	if err != nil || !ds[0].Admitted || !ds[1].Admitted || !ds[2].Admitted {
		t.Fatalf("batch: %+v %v", ds, err)
	}
	expect("batch", []FoldEvent{{Spec: b, Kind: FoldAdmitted}, {Spec: x, Kind: FoldAdmitted}, {Spec: c, Kind: FoldAdmitted}})

	// Release fires with the admitted spec pointer at claim time: the
	// resident count drops at once, the shard still holds b until the
	// next call applies the queued removal. A miss fires nothing.
	if ok, err := ctl.Release("b"); err != nil || !ok {
		t.Fatalf("release b: %v %v", ok, err)
	}
	expect("release", []FoldEvent{{Spec: b, Kind: FoldReleased}})
	if ctl.NumResidents() != 3 || ctl.se.NumFlows() != 4 || len(ctl.departing) != 1 {
		t.Fatalf("after claim: %d residents, %d shard flows, %d queued; want 3, 4, 1",
			ctl.NumResidents(), ctl.se.NumFlows(), len(ctl.departing))
	}
	if ok, err := ctl.Release("ghost"); err != nil || ok {
		t.Fatalf("release ghost: %v %v", ok, err)
	}
	expect("miss", nil)
	if err := ctl.Flush(); err != nil {
		t.Fatal(err)
	}
	expect("flush", nil)
	if ctl.se.NumFlows() != 3 || len(ctl.departing) != 0 {
		t.Fatalf("after flush: %d shard flows, %d queued; want 3, 0", ctl.se.NumFlows(), len(ctl.departing))
	}

	// Clearing the hook silences it.
	ctl.SetNotify(nil)
	if _, err := ctl.Request(voip("d", 0, 1)); err != nil {
		t.Fatal(err)
	}
	expect("cleared", nil)
}
