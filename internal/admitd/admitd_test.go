package admitd_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"gmfnet/internal/admitd"
	"gmfnet/internal/admitd/client"
	"gmfnet/internal/workload"
)

// campus22 is the default test topology: two chained switches, two
// hosts each — h0_0/h0_1 under sw0, h1_0/h1_1 under sw1, so flows kept
// inside one switch form disjoint interference closures.
var campus22 = workload.TopoSpec{Kind: "campus", Switches: 2, Hosts: 2}

// voipOp is a light request: a G.711 VoIP call admits comfortably on a
// 100 Mbit/s campus edge link.
func voipOp(name, src, dst string) workload.Op {
	return workload.Op{Op: "add", Name: name, Kind: "voip", Src: src, Dst: dst,
		Prio: 1, DeadlinePS: 100_000_000_000, RTP: true}
}

// heavyOp is a ~66 Mbit/s CBR video request: it admits on an otherwise
// idle edge link but is rejected once any other flow shares the link.
func heavyOp(name, src, dst string) workload.Op {
	return workload.Op{Op: "add", Name: name, Kind: "cbr", Src: src, Dst: dst,
		Prio: 1, Bytes: 250_000, PeriodPS: 30_000_000_000, DeadlinePS: 250_000_000_000}
}

// mediumOp is a ~27 Mbit/s CBR video request: it coexists with VoIP on
// an edge link.
func mediumOp(name, src, dst string) workload.Op {
	return workload.Op{Op: "add", Name: name, Kind: "cbr", Src: src, Dst: dst,
		Prio: 1, Bytes: 100_000, PeriodPS: 30_000_000_000, DeadlinePS: 250_000_000_000}
}

// newTestServer boots a daemon on a loopback TCP listener and returns
// its dial address. Drained on cleanup (unless the test drained it
// itself — Drain is idempotent).
func newTestServer(t *testing.T, cfg admitd.Config) (*admitd.Server, string) {
	t.Helper()
	if cfg.Topo == (workload.TopoSpec{}) {
		cfg.Topo = campus22
	}
	srv, err := admitd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	return srv, l.Addr().String()
}

func dialTest(t *testing.T, addr string, topo workload.TopoSpec) *client.Client {
	t.Helper()
	cli, err := client.Dial("tcp", addr, topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// barrier forces a synchronous round trip on the client's connection:
// because the daemon pushes events before the verdict of the op that
// caused them, and each connection delivers in order, any event owed to
// this client from an earlier dispatched op has been processed by the
// time the stats reply arrives.
func barrier(t *testing.T, cli *client.Client) admitd.Stats {
	t.Helper()
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSubscriptionDeltas pins the fan-out semantics: an admission or
// departure notifies exactly one event per affected subscribed flow —
// the flows sharing the changed interference closure — and none for
// flows in unaffected closures; rejected requests notify nobody.
func TestSubscriptionDeltas(t *testing.T) {
	_, addr := newTestServer(t, admitd.Config{})
	op := dialTest(t, addr, campus22)   // operator: submits all requests
	subA := dialTest(t, addr, campus22) // watches "a" (sw0 closure)
	subB := dialTest(t, addr, campus22) // watches "b" (sw1 closure)
	if err := subA.Subscribe("a"); err != nil {
		t.Fatal(err)
	}
	if err := subB.Subscribe("b"); err != nil {
		t.Fatal(err)
	}

	check := func(step string, cli *client.Client, wantCount int64, flow string, wantPeer, wantEvent string, wantResidents int) {
		t.Helper()
		barrier(t, cli)
		if got := cli.EventCount(); got != wantCount {
			t.Fatalf("%s: event count = %d, want %d", step, got, wantCount)
		}
		if wantPeer == "" {
			return
		}
		ev, ok := cli.LastEvent(flow)
		if !ok {
			t.Fatalf("%s: no event recorded for %q", step, flow)
		}
		if ev.Peer != wantPeer || ev.Event != wantEvent || ev.Residents != wantResidents {
			t.Fatalf("%s: event = peer %q %s residents %d, want peer %q %s residents %d",
				step, ev.Peer, ev.Event, ev.Residents, wantPeer, wantEvent, wantResidents)
		}
	}

	// a's own admission notifies its subscriber; b's watcher hears nothing.
	if ok, err := op.Add(voipOp("a", "h0_0", "h0_1")); err != nil || !ok {
		t.Fatalf("admit a: %v %v", ok, err)
	}
	check("admit a/subA", subA, 1, "a", "a", admitd.EventAdmitted, 1)
	check("admit a/subB", subB, 0, "", "", "", 0)

	// b lives in sw1's closure: only its watcher hears.
	if ok, err := op.Add(voipOp("b", "h1_0", "h1_1")); err != nil || !ok {
		t.Fatalf("admit b: %v %v", ok, err)
	}
	check("admit b/subB", subB, 1, "b", "b", admitd.EventAdmitted, 1)
	check("admit b/subA", subA, 1, "a", "a", admitd.EventAdmitted, 1)

	// c joins a's closure: one event to a's watcher, population 2.
	if ok, err := op.Add(voipOp("c", "h0_0", "h0_1")); err != nil || !ok {
		t.Fatalf("admit c: %v %v", ok, err)
	}
	check("admit c/subA", subA, 2, "a", "c", admitd.EventAdmitted, 2)
	check("admit c/subB", subB, 1, "b", "b", admitd.EventAdmitted, 1)

	// A rejected request enters no closure: nobody hears. r1 (medium
	// CBR) still fits beside the VoIP pair; r2 (heavy CBR) does not.
	if ok, err := op.Add(mediumOp("r1", "h0_0", "h0_1")); err != nil || !ok {
		t.Fatalf("admit r1: %v %v", ok, err)
	}
	if ok, err := op.Add(heavyOp("r2", "h0_0", "h0_1")); err != nil || ok {
		t.Fatalf("r2 should be rejected: %v %v", ok, err)
	}
	check("reject r2/subA", subA, 3, "a", "r1", admitd.EventAdmitted, 3)

	// c departs a's closure: one released event, population back to 2.
	if ok, err := op.Release("c"); err != nil || !ok {
		t.Fatalf("release c: %v %v", ok, err)
	}
	check("release c/subA", subA, 4, "a", "c", admitd.EventReleased, 2)
	check("release c/subB", subB, 1, "b", "b", admitd.EventAdmitted, 1)

	// a itself departs: residents drops to 0 for its watcher.
	if ok, err := op.Release("a"); err != nil || !ok {
		t.Fatalf("release a: %v %v", ok, err)
	}
	check("release a/subA", subA, 5, "a", "a", admitd.EventReleased, 0)

	// Unsubscribed watchers hear nothing further.
	if err := subB.Unsubscribe("b"); err != nil {
		t.Fatal(err)
	}
	if ok, err := op.Release("b"); err != nil || !ok {
		t.Fatalf("release b: %v %v", ok, err)
	}
	check("release b after unsub/subB", subB, 1, "b", "b", admitd.EventAdmitted, 1)

	// A bridging flow fuses two closures and splits them again when it
	// departs: both watchers hear both changes, and after the split each
	// is told the population of its own half. (r1 is still resident
	// under sw0.)
	if err := subB.Subscribe("b"); err != nil {
		t.Fatal(err)
	}
	admit := func(name, src, dst string) {
		t.Helper()
		if ok, err := op.Add(voipOp(name, src, dst)); err != nil || !ok {
			t.Fatalf("admit %s: %v %v", name, ok, err)
		}
	}
	admit("a", "h0_0", "h0_1")
	check("readmit a/subA", subA, 6, "a", "a", admitd.EventAdmitted, 2)
	admit("b", "h1_0", "h1_1")
	check("readmit b/subB", subB, 2, "b", "b", admitd.EventAdmitted, 1)
	admit("x", "h0_0", "h1_1") // shares h0_0->sw0 with a, sw1->h1_1 with b
	check("bridge x/subA", subA, 7, "a", "x", admitd.EventAdmitted, 4)
	check("bridge x/subB", subB, 3, "b", "x", admitd.EventAdmitted, 4)
	if ok, err := op.Release("x"); err != nil || !ok {
		t.Fatalf("release x: %v %v", ok, err)
	}
	check("split/subA", subA, 8, "a", "x", admitd.EventReleased, 2)
	check("split/subB", subB, 4, "b", "x", admitd.EventReleased, 1)

	// Duplicate names: a second "a" is admitted into b's closure. The
	// event for "a" reports the closure of the *first* resident of that
	// name (still under sw0, population 2), not the closure that
	// changed (population 3) ...
	admit("d", "h1_0", "h1_1")
	check("admit d/subB", subB, 5, "b", "d", admitd.EventAdmitted, 2)
	admit("a", "h1_0", "h1_1")
	check("second a/subA", subA, 9, "a", "a", admitd.EventAdmitted, 2)
	check("second a/subB", subB, 6, "b", "a", admitd.EventAdmitted, 3)
	// ... and when the first "a" departs, the second becomes the first:
	// its closure is not the one that changed, and is still what a's
	// watcher is told about. b's closure was not touched.
	if ok, err := op.Release("a"); err != nil || !ok {
		t.Fatalf("release first a: %v %v", ok, err)
	}
	check("release first a/subA", subA, 10, "a", "a", admitd.EventReleased, 3)
	check("release first a/subB", subB, 6, "b", "a", admitd.EventAdmitted, 3)
}

// TestEventBeforeVerdict pins the per-connection ordering guarantee: a
// client subscribed to the flow it submits has already received the
// admission event when its own verdict returns.
func TestEventBeforeVerdict(t *testing.T) {
	_, addr := newTestServer(t, admitd.Config{})
	cli := dialTest(t, addr, campus22)
	if err := cli.Subscribe("a"); err != nil {
		t.Fatal(err)
	}
	if ok, err := cli.Add(voipOp("a", "h0_0", "h0_1")); err != nil || !ok {
		t.Fatalf("admit: %v %v", ok, err)
	}
	if got := cli.EventCount(); got != 1 {
		t.Fatalf("event count after own verdict = %d, want 1 (event must precede verdict)", got)
	}
}

// TestSlowSubscriberDropped pins the bounded-queue contract: a
// subscriber that stops reading overflows its outbound queue and is
// disconnected, while the dispatcher keeps deciding other clients'
// requests synchronously throughout.
func TestSlowSubscriberDropped(t *testing.T) {
	_, addr := newTestServer(t, admitd.Config{Queue: 2, WriteTimeout: 50 * time.Millisecond})
	op := dialTest(t, addr, campus22)

	// Populate one closure with 50 VoIP flows; subscribing to all of
	// them multiplies every later change into ~50 events, so the kernel
	// socket buffers in front of the non-reading subscriber fill fast.
	const fanout = 50
	for i := 0; i < fanout; i++ {
		name := fmt.Sprintf("a%d", i)
		if ok, err := op.Add(voipOp(name, "h0_0", "h0_1")); err != nil || !ok {
			t.Fatalf("admit %s: %v %v", name, ok, err)
		}
	}

	// The slow subscriber is a raw connection that handshakes,
	// subscribes, and then never reads again; a tiny receive buffer
	// makes the kernel stop absorbing events quickly.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(256)
	}
	enc := json.NewEncoder(nc)
	dec := json.NewDecoder(bufio.NewReader(nc))
	if err := enc.Encode(admitd.Hello{V: admitd.ProtocolVersion, Topo: campus22}); err != nil {
		t.Fatal(err)
	}
	var ack admitd.Msg
	if err := dec.Decode(&ack); err != nil || ack.Kind != admitd.KindHello {
		t.Fatalf("handshake: %v %+v", err, ack)
	}
	for i := 0; i < fanout; i++ {
		if err := enc.Encode(workload.Op{Op: "sub", Name: fmt.Sprintf("a%d", i), ID: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		var sub admitd.Msg
		if err := dec.Decode(&sub); err != nil || sub.Verdict != admitd.VerdictSub {
			t.Fatalf("subscribe %d: %v %+v", i, err, sub)
		}
	}
	// From here on the subscriber never reads another byte.

	dropped := false
	for i := 0; i < 2000 && !dropped; i++ {
		if ok, err := op.Add(voipOp("peer", "h0_0", "h0_1")); err != nil || !ok {
			t.Fatalf("toggle admit %d: %v %v", i, ok, err)
		}
		if ok, err := op.Release("peer"); err != nil || !ok {
			t.Fatalf("toggle release %d: %v %v", i, ok, err)
		}
		if i%10 == 9 {
			st := barrier(t, op)
			if st.Dropped > 0 {
				dropped = true
				if st.Conns != 1 {
					t.Fatalf("live conns after drop = %d, want 1 (the operator)", st.Conns)
				}
				if st.Subs != 0 {
					t.Fatalf("subscriptions after drop = %d, want 0", st.Subs)
				}
			}
		}
	}
	if !dropped {
		t.Fatal("slow subscriber was never dropped")
	}
}

// TestDrain pins graceful shutdown: connected clients receive the drain
// message, their subsequent calls fail with ErrDraining, and the
// post-drain resident snapshot matches what was admitted.
func TestDrain(t *testing.T) {
	srv, addr := newTestServer(t, admitd.Config{})
	cli := dialTest(t, addr, campus22)
	for _, name := range []string{"a", "b"} {
		if ok, err := cli.Add(voipOp(name, "h0_0", "h0_1")); err != nil || !ok {
			t.Fatalf("admit %s: %v %v", name, ok, err)
		}
	}
	if ok, err := cli.Release("b"); err != nil || !ok {
		t.Fatalf("release b: %v %v", ok, err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-cli.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client never observed the drain")
	}
	if _, err := cli.Add(voipOp("late", "h0_0", "h0_1")); err == nil {
		t.Fatal("add after drain succeeded, want ErrDraining")
	}
	res := srv.Residents()
	if len(res) != 1 || res[0].Flow.Name != "a" {
		names := make([]string, len(res))
		for i, fs := range res {
			names[i] = fs.Flow.Name
		}
		t.Fatalf("residents after drain = %v, want [a]", names)
	}
	// Idempotent.
	if err := srv.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	// A listener handed to a drained server is closed immediately.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestHelloValidation pins the handshake gate: version skew and
// topology mismatch are refused with an error message; the zero-spec
// observer hello is accepted and learns the daemon's topology; an
// empty Kind is the recorded-campus spelling of "campus".
func TestHelloValidation(t *testing.T) {
	_, addr := newTestServer(t, admitd.Config{})

	if _, err := client.Dial("tcp", addr, workload.TopoSpec{Kind: "backbone", Switches: 2, Hosts: 2, Fanout: 2}); err == nil {
		t.Fatal("mismatched topology hello accepted")
	}

	// Version skew, raw: the client package always speaks the current
	// version, so fake an old one.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := json.NewEncoder(nc).Encode(admitd.Hello{V: admitd.ProtocolVersion + 1, Topo: campus22}); err != nil {
		t.Fatal(err)
	}
	var m admitd.Msg
	if err := json.NewDecoder(bufio.NewReader(nc)).Decode(&m); err != nil || m.Kind != admitd.KindError {
		t.Fatalf("version-skew reply = %+v (%v), want error", m, err)
	}

	// Observer hello: accepted, returns the served spec.
	obs := dialTest(t, addr, workload.TopoSpec{})
	if got := obs.ServerTopo(); got != campus22 {
		t.Fatalf("observer learned topo %+v, want %+v", got, campus22)
	}

	// Empty Kind means campus.
	legacy := dialTest(t, addr, workload.TopoSpec{Switches: 2, Hosts: 2})
	if _, err := legacy.Stats(); err != nil {
		t.Fatalf("legacy campus hello: %v", err)
	}
}

// TestWireErrors pins the op-level error replies: unknown ops, batches
// with non-add members or no members at all (no verdict would answer
// one) and nameless subscribes answer with an error carrying the op's
// correlation ID, and the connection stays usable.
func TestWireErrors(t *testing.T) {
	_, addr := newTestServer(t, admitd.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	enc := json.NewEncoder(nc)
	dec := json.NewDecoder(bufio.NewReader(nc))
	if err := enc.Encode(admitd.Hello{V: admitd.ProtocolVersion, Topo: campus22}); err != nil {
		t.Fatal(err)
	}
	var ack admitd.Msg
	if err := dec.Decode(&ack); err != nil || ack.Kind != admitd.KindHello {
		t.Fatalf("handshake: %v %+v", err, ack)
	}
	expectErr := func(op workload.Op) {
		t.Helper()
		if err := enc.Encode(op); err != nil {
			t.Fatal(err)
		}
		var m admitd.Msg
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		if m.Kind != admitd.KindError || m.ID != op.ID {
			t.Fatalf("op %+v: reply = %+v, want error with id %d", op, m, op.ID)
		}
	}
	expectErr(workload.Op{Op: "warp", ID: 1})
	expectErr(workload.Op{Op: "batch", ID: 2, Flows: []workload.Op{{Op: "del", Name: "x"}}})
	expectErr(workload.Op{Op: "sub", ID: 3})
	expectErr(workload.Op{Op: "add", ID: 4, Name: "x", Kind: "voip", Src: "h0_0", Dst: "nowhere"})
	expectErr(workload.Op{Op: "batch", ID: 5})

	// Still usable after every error.
	if err := enc.Encode(workload.Op{Op: "stats", ID: 6}); err != nil {
		t.Fatal(err)
	}
	var st admitd.Msg
	if err := dec.Decode(&st); err != nil || st.Kind != admitd.KindStats || st.ID != 6 {
		t.Fatalf("stats after errors: %v %+v", err, st)
	}
}

// TestStatsAccounting pins the counters: controller accounting balances
// (admitted - released = resident) and the daemon's op/verdict/conn
// counters track what actually happened on the wire.
func TestStatsAccounting(t *testing.T) {
	_, addr := newTestServer(t, admitd.Config{})
	cli := dialTest(t, addr, campus22)
	verdicts, err := cli.Batch([]workload.Op{
		voipOp("a", "h0_0", "h0_1"),
		voipOp("b", "h1_0", "h1_1"),
		mediumOp("m1", "h0_0", "h0_1"),
		heavyOp("h2", "h0_0", "h0_1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false}
	for i, v := range verdicts {
		if v != want[i] {
			t.Fatalf("batch verdicts = %v, want %v", verdicts, want)
		}
	}
	if ok, err := cli.Release("m1"); err != nil || !ok {
		t.Fatalf("release: %v %v", ok, err)
	}
	if ok, err := cli.Release("ghost"); err != nil || ok {
		t.Fatalf("release miss: %v %v", ok, err)
	}
	st := barrier(t, cli)
	if st.Admitted != 3 || st.Rejected != 1 || st.Released != 1 || st.Resident != 2 {
		t.Fatalf("accounting = %+v, want admitted 3 rejected 1 released 1 resident 2", st)
	}
	if st.Admitted-st.Released != st.Resident {
		t.Fatalf("accounting does not balance: %+v", st)
	}
	if st.Conns != 1 || st.TotalConns != 1 {
		t.Fatalf("conns = %d/%d, want 1/1", st.Conns, st.TotalConns)
	}
	// ops: batch + 2 dels + this stats op; verdicts: 4 batch + 2 del
	// (the stats reply is pushed after the snapshot is taken).
	if st.Ops != 4 || st.Verdicts != 6 {
		t.Fatalf("ops/verdicts = %d/%d, want 4/6", st.Ops, st.Verdicts)
	}
	if len(st.PerConn) != 1 || st.PerConn[0].Ops != st.Ops {
		t.Fatalf("per-conn stats = %+v", st.PerConn)
	}
}

// TestGoroutinesIndependentOfClosures pins the daemon's concurrency
// shape: the dispatcher decides in-line on one goroutine, so a daemon
// holding ~1 000 interference closures runs exactly as many goroutines
// as one holding ten — no per-closure worker or mailbox exists.
func TestGoroutinesIndependentOfClosures(t *testing.T) {
	spec := workload.TopoSpec{Kind: "backbone", Switches: 16, Fanout: 16, Hosts: 4}
	_, hosts, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := newTestServer(t, admitd.Config{Topo: spec})
	cli := dialTest(t, addr, spec)
	// One flow per directed host pair of each 4-host access group: every
	// flow is its own closure.
	admit := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			g, pair := i/4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}[i%4]
			op := voipOp(fmt.Sprintf("f%d", i), string(hosts[g*4+pair[0]]), string(hosts[g*4+pair[1]]))
			if ok, err := cli.Add(op); err != nil || !ok {
				t.Fatalf("admit f%d: %v %v", i, ok, err)
			}
		}
	}
	// settled reads the goroutine count once it holds still, so a
	// goroutine on its way out of a finished test does not count.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	admit(0, 10)
	few := settled()
	admit(10, 1000)
	if st := barrier(t, cli); st.Resident != 1000 {
		t.Fatalf("%d residents, want 1000", st.Resident)
	}
	if many := settled(); many != few {
		t.Fatalf("goroutines: %d with 10 closures, %d with 1000", few, many)
	}
}
