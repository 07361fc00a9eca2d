package gmfnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet"
	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// Allocation-regression tests for the admission hot path. The budgets
// are deliberately loose multiples of the measured steady state (see
// BENCH_admission.json and README "Performance") so they catch a
// reintroduced per-stage or per-frame allocation — the class of
// regression that multiplies the figure — without flaking on compiler
// or runtime noise.

// requestCycleAllocBudget caps the allocations of one steady-state
// Request+Release cycle on the facade's admission controller (the
// sharded one, retaining every decision). Scratch-buffer reuse
// (the egress hep buffer, VisitInterferers, the epoch-stamped worklist front) and
// warm passes that build no bounds keep the cycle at 53 allocs/op with
// Go 1.24, most of them the fresh shard the probe opens alone in its
// closure each cycle; the budget allows 39 % headroom, rounded up.
const requestCycleAllocBudget = 74

func steadyProbeSpec() *gmfnet.FlowSpec {
	return &gmfnet.FlowSpec{
		Flow:     gmfnet.VoIP("steady-probe", gmfnet.VoIPOptions{Deadline: 500 * units.Millisecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 3,
	}
}

// TestSteadyStateRequestAllocs pins the allocation count of the
// admit-then-depart cycle that dominates a long-running daemon: one
// Request (placement + tentative add + warm delta analysis + commit)
// followed by the matching Release, whose queued removal the next
// Request applies. Regressions here multiply directly into the
// sustained-load throughput floor.
func TestSteadyStateRequestAllocs(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: units.Gbps}))
	ctl, err := sys.NewAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		d, err := ctl.Request(steadyProbeSpec())
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted {
			t.Fatal("steady-state probe rejected")
		}
		d.View.Close()
		if ok, err := ctl.Release("steady-probe"); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
	}
	// Warm the engine caches (demand tables, scratch buffers, journal
	// arenas) so the measurement sees only the steady state.
	for i := 0; i < 8; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	t.Logf("steady-state Request+Release cycle: %.1f allocs/op", allocs)
	if allocs > requestCycleAllocBudget {
		t.Fatalf("steady-state Request+Release cycle allocates %.1f/op, budget %d",
			allocs, requestCycleAllocBudget)
	}
}

// countersCycleAllocBudget caps one steady-state Request+Release cycle
// through the sharded controller under RetainCounters, where the fold
// keeps no per-decision state: the decision folds into four counters
// and the resident name FIFO, and the departure is queued for the next
// call. It measures 53 objects with Go 1.24: the probe is alone in its
// closure, so every cycle drops its emptied shard and the next Request
// opens a fresh one. The budget allows 100 % headroom; the fold itself
// must stay O(1) allocations.
const countersCycleAllocBudget = 106

// TestCountersRetentionFoldAllocs pins the allocation count of the
// counters-retention fold path on the sharded controller — the
// configuration the daemon and the million-request soak run in, where
// any per-fold allocation would show up millions of times.
func TestCountersRetentionFoldAllocs(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: units.Gbps}))
	ctl, err := sys.NewAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.SetRetention(admission.RetainCounters)
	cycle := func() {
		if d, err := ctl.Request(steadyProbeSpec()); err != nil || !d.Admitted {
			t.Fatalf("request: %v %v", d.Admitted, err)
		}
		if ok, err := ctl.Release("steady-probe"); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	t.Logf("counters-retention Request+Release cycle: %.1f allocs/op", allocs)
	if allocs > countersCycleAllocBudget {
		t.Fatalf("counters-retention cycle allocates %.1f/op, budget %d",
			allocs, countersCycleAllocBudget)
	}
	if got := ctl.Admitted(); got < 108 {
		t.Fatalf("fold lost decisions: admitted=%d", got)
	}
}

// largeClosureCycleAllocBudget caps one Request+Release cycle under
// RetainCounters whose probe joins a 200-flow interference closure on
// the clos-cross shape (see largeClosureCycle). The probe's delta
// analysis re-evaluates the stages its links feed, and the departure the
// next Request applies descends the closure warm; their passes build no
// bounds, so neither allocates per re-analysed flow. Measured 33 with
// Go 1.24; the budget allows 20 % headroom, rounded up.
const largeClosureCycleAllocBudget = 40

// largeClosureCycle admits 200 cross-leaf VoIP flows on a clos fabric of
// 4 spines and `leaves` leaves of 8 hosts — every flow crosses a spine,
// so the residents fuse one interference closure — and returns one
// steady cycle: Request of a probe that joins the closure, then its
// Release. The controller keeps counters only, like gmfnet-admitd.
func largeClosureCycle(tb testing.TB, leaves int) func() {
	tb.Helper()
	topo, hosts, err := network.ClosTenant(4, leaves, 8)
	if err != nil {
		tb.Fatal(err)
	}
	ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ctl.SetRetention(admission.RetainCounters)
	r := rand.New(rand.NewSource(3))
	voip := func(name string) *network.FlowSpec {
		src, dst := r.Intn(len(hosts)), r.Intn(len(hosts))
		if src/8 == dst/8 {
			dst = (dst + 8) % len(hosts) // cross-leaf: every flow joins one closure
		}
		route, err := topo.Route(hosts[src], hosts[dst])
		if err != nil {
			tb.Fatal(err)
		}
		return &network.FlowSpec{
			Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: network.Priority(r.Intn(3)),
		}
	}
	for k := 0; k < 200; k++ {
		if d, err := ctl.Request(voip(fmt.Sprintf("f%d", k))); err != nil || !d.Admitted {
			tb.Fatalf("resident %d: admitted=%v err=%v", k, d.Admitted, err)
		}
	}
	probes := make([]*network.FlowSpec, 16)
	for i := range probes {
		probes[i] = voip("probe")
	}
	i := 0
	cycle := func() {
		if d, err := ctl.Request(probes[i%len(probes)]); err != nil || !d.Admitted {
			tb.Fatalf("probe: admitted=%v err=%v", d.Admitted, err)
		}
		i++
		if ok, err := ctl.Release("probe"); err != nil || !ok {
			tb.Fatalf("release: ok=%v err=%v", ok, err)
		}
	}
	for k := 0; k < len(probes); k++ {
		cycle()
	}
	if n := ctl.NumShards(); n != 1 {
		tb.Fatalf("residents form %d closures, want 1", n)
	}
	return cycle
}

// TestLargeClosureRequestAllocs pins the allocation count of a request
// into a ~200-flow closure and its departure, on the clos-cross shape
// (16 leaves).
func TestLargeClosureRequestAllocs(t *testing.T) {
	cycle := largeClosureCycle(t, 16)
	allocs := testing.AllocsPerRun(64, cycle)
	t.Logf("Request+Release in a 200-flow closure: %.1f allocs/op", allocs)
	if allocs > largeClosureCycleAllocBudget {
		t.Fatalf("large-closure cycle allocates %.1f/op, budget %d", allocs, largeClosureCycleAllocBudget)
	}
}

// rejectedRequestAllocBudget caps one rejected Request under
// RetainCounters: snapshot, tentative add, the delta analysis that finds
// the deadline miss, and the rollback. Measured 18 with Go 1.24; the
// budget allows 25 % headroom, rounded up.
const rejectedRequestAllocBudget = 23

// TestRejectedRequestAllocs pins the allocation count of a rejection in
// a resident closure: a flow whose deadline no bound can meet, refused
// over and over while two residents share its route.
func TestRejectedRequestAllocs(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: units.Gbps}))
	ctl, err := sys.NewAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetRetention(admission.RetainCounters)
	for _, name := range []string{"r0", "r1"} {
		fs := steadyProbeSpec()
		fs.Flow.Name = name
		if d, err := ctl.Request(fs); err != nil || !d.Admitted {
			t.Fatalf("resident %s: admitted=%v err=%v", name, d.Admitted, err)
		}
	}
	doomed := &gmfnet.FlowSpec{
		Flow:     gmfnet.VoIP("doomed", gmfnet.VoIPOptions{Deadline: units.Microsecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 3,
	}
	request := func() {
		if d, err := ctl.Request(doomed); err != nil || d.Admitted {
			t.Fatalf("doomed request: admitted=%v err=%v", d.Admitted, err)
		}
	}
	for i := 0; i < 8; i++ {
		request()
	}
	allocs := testing.AllocsPerRun(100, request)
	t.Logf("rejected Request: %.1f allocs/op", allocs)
	if allocs > rejectedRequestAllocBudget {
		t.Fatalf("rejected Request allocates %.1f/op, budget %d", allocs, rejectedRequestAllocBudget)
	}
}
