package main

import (
	"fmt"

	"gmfnet/internal/workload"
)

// workloadDef is one benchmark workload: a generated topology, the
// synthesizer parameters of its traffic, and the fixed number of wire
// ops each phase of a repetition replays. Op counts are part of the
// benchmark's definition — they are the same on both sides of any
// comparison, so a faster daemon finishes a phase sooner instead of
// being handed more (and, on clos-cross, more expensive) work.
type workloadDef struct {
	Name string
	Topo workload.TopoSpec
	// Gen is the synthesizer configuration; Seed and Requests are
	// filled in per run.
	Gen workload.Config
	// SubEvery > 0 injects a "sub" after every SubEvery-th "add" and an
	// "unsub" after that flow's "del".
	SubEvery int
	// Warm ops rebuild the steady-state resident population (untimed,
	// counted in setup_s); Sync ops run one at a time and give the
	// round-trip latencies; Cap ops run window-deep and give capacity.
	Warm, Sync, Cap int
}

// window is the number of ops in flight during the warm-up and the
// capacity phase.
const window = 8

// coldPrefix is the number of leading ops replayed through the cold
// reference controller in every run.
const coldPrefix = 300

// workloads lists the benchmark's workloads; bench/README.md says what
// each one stresses and why. Sizes are chosen so that one repetition
// (warm-up, sync phase, capacity phase) takes 5-8 s on the 2-vCPU seed
// host, which fits three to five repetitions into a 26 s run.
var workloads = []workloadDef{
	{
		Name: "backbone-steady",
		Topo: workload.TopoSpec{Kind: "backbone", Switches: 32, Fanout: 32, Hosts: 2},
		Gen:  workload.Config{Hold: 2400, Local: 1, Heavy: 0.02},
		Warm: 6000, Sync: 5000, Cap: 9000,
	},
	{
		Name: "backbone-light",
		Topo: workload.TopoSpec{Kind: "backbone", Switches: 32, Fanout: 32, Hosts: 2},
		Gen:  workload.Config{Hold: 256, Local: 1, Heavy: 0.02},
		Warm: 3000, Sync: 16000, Cap: 40000,
	},
	{
		Name: "clos-cross",
		Topo: workload.TopoSpec{Kind: "clos", Switches: 16, Fanout: 4, Hosts: 8},
		Gen:  workload.Config{Hold: 250, Local: 0.8, Heavy: 0.05},
		// The sync phase gets the larger share: one closure means no
		// averaging over closures, and the add round trips are what
		// varies most from seed to seed.
		Warm: 1500, Sync: 4000, Cap: 2500,
	},
	{
		Name: "fronthaul-churn-sub",
		Topo: workload.TopoSpec{Kind: "fronthaul", Switches: 16, Fanout: 16, Hosts: 2},
		Gen: workload.Config{Hold: 1500, Local: 0.99, Heavy: 0.1, Tenants: 8,
			TenantChurn: 0.001, Flash: 12, FlashLen: 60, Diurnal: 0.4},
		SubEvery: 16,
		Warm:     5000, Sync: 9000, Cap: 16000,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

// scaled shrinks the op counts and the hold time by the same factor, so
// a tiny run still sees arrivals and departures in every phase; the
// smoke test runs every workload this way.
func (wl workloadDef) scaled(f float64) workloadDef {
	scale := func(n int) int {
		if n = int(float64(n) * f); n < 40 {
			n = 40
		}
		return n
	}
	wl.Warm, wl.Sync, wl.Cap = scale(wl.Warm), scale(wl.Sync), scale(wl.Cap)
	wl.Gen.Hold = scale(wl.Gen.Hold)
	return wl
}

func (wl workloadDef) total() int { return wl.Warm + wl.Sync + wl.Cap }

// ops synthesizes the workload's op sequence for one seed: the trace of
// workload.Synthesize, with subscriptions injected, cut to exactly
// Warm+Sync+Cap ops. Each request contributes an add and (later) a del,
// less the flows still resident at the end; the request count starts a
// little above that estimate and grows until the trace is long enough.
// The result is a pure function of (wl, seed).
func (wl workloadDef) ops(seed int64) ([]workload.Op, error) {
	need := wl.total()
	cfg := wl.Gen
	cfg.Seed = seed
	for cfg.Requests = (need+cfg.Hold)/2 + need/16 + 16; ; cfg.Requests += cfg.Requests / 8 {
		_, trace, err := workload.Synthesize(wl.Topo, cfg)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", wl.Name, err)
		}
		ops := injectSubs(trace, wl.SubEvery)
		if len(ops) >= need {
			return ops[:need], nil
		}
	}
}

// injectSubs adds a "sub" after every n-th add and an "unsub" after the
// del of each subscribed flow.
func injectSubs(trace []workload.Op, n int) []workload.Op {
	if n <= 0 {
		return trace
	}
	out := make([]workload.Op, 0, len(trace)+len(trace)/n)
	subscribed := make(map[string]bool)
	adds := 0
	for _, op := range trace {
		out = append(out, op)
		switch op.Op {
		case "add":
			if adds++; adds%n == 0 {
				subscribed[op.Name] = true
				out = append(out, workload.Op{Op: "sub", Name: op.Name})
			}
		case "del":
			if subscribed[op.Name] {
				delete(subscribed, op.Name)
				out = append(out, workload.Op{Op: "unsub", Name: op.Name})
			}
		}
	}
	return out
}
