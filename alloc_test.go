package gmfnet_test

import (
	"testing"

	"gmfnet"
	"gmfnet/internal/admission"
	"gmfnet/internal/units"
)

// Allocation-regression tests for the admission hot path. The budgets
// are deliberately loose multiples of the measured steady state (see
// BENCH_admission.json and README "Performance") so they catch a
// reintroduced per-stage or per-frame allocation — the class of
// regression that multiplies the figure — without flaking on compiler
// or runtime noise.

// requestCycleAllocBudget caps the allocations of one steady-state
// Request+Release cycle on the serial controller. The issue-10 work
// brought the cycle from ~445 allocs/op down via scratch-buffer reuse
// (AppendHEP/VisitInterferers, the flowPass stage arena, the epoch-
// stamped worklist front); the acceptance bar is <= 111 (a 4x cut),
// and the measured value sits well below it.
const requestCycleAllocBudget = 111

func steadyProbeSpec() *gmfnet.FlowSpec {
	return &gmfnet.FlowSpec{
		Flow:     gmfnet.VoIP("steady-probe", gmfnet.VoIPOptions{Deadline: 500 * units.Millisecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 3,
	}
}

// TestSteadyStateRequestAllocs pins the allocation count of the
// admit-then-depart cycle that dominates a long-running daemon: one
// Request (tentative add + warm delta analysis + commit) followed by
// the matching Release. Regressions here multiply directly into the
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
// call. It measures 81 objects with Go 1.24: the probe is alone in its
// closure, so every cycle drops its emptied shard and the next Request
// opens a fresh one. The fold itself must stay O(1) allocations.
const countersCycleAllocBudget = 160

// TestCountersRetentionFoldAllocs pins the allocation count of the
// counters-retention fold path on the sharded controller — the
// configuration the daemon and the million-request soak run in, where
// any per-fold allocation would show up millions of times.
func TestCountersRetentionFoldAllocs(t *testing.T) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: units.Gbps}))
	ctl, err := sys.NewParallelAdmissionController(gmfnet.AnalysisConfig{})
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
