// Benchmarks regenerating every experiment of DESIGN.md's index (E1-E13),
// plus end-to-end benches of the three pillars: analysis, simulation and
// admission control. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* executes the full experiment; custom metrics surface
// the headline quantity of the experiment so that `go test -bench` output
// doubles as a compact results table (see EXPERIMENTS.md).
package gmfnet_test

import (
	"fmt"
	"testing"

	"gmfnet"
	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/ether"
	"gmfnet/internal/exp"
	"gmfnet/internal/network"
	"gmfnet/internal/sim"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
	"gmfnet/internal/workload"
)

// runExperiment executes one experiment per iteration and fails the bench
// on any experiment error (E5/E6 embed correctness checks).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_LinkParameters regenerates Fig. 3/4: per-frame C_ik, CSUM,
// NSUM, TSUM on link(0,4) at 10 Mbit/s.
func BenchmarkE1_LinkParameters(b *testing.B) {
	d, err := ether.DemandFor(trace.MPEGIBBPBBPBB("m", trace.MPEGOptions{}), 10*units.Mbps, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(d.TSUM().Milliseconds(), "TSUM_ms")
	b.ReportMetric(d.CSUM().Milliseconds(), "CSUM_ms")
	b.ReportMetric(float64(d.NSUM()), "NSUM_frames")
	runExperiment(b, "E1")
}

// BenchmarkE2_CIRC regenerates the 14.8 µs CIRC example of Section 3.3.
func BenchmarkE2_CIRC(b *testing.B) {
	topo := network.MustFigure1(network.Figure1Options{})
	circ, err := topo.CIRC("6")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(circ.Microseconds(), "CIRC_us")
	runExperiment(b, "E2")
}

// BenchmarkE3_EndToEnd regenerates the Figure 6 pipeline on the Figure 1
// network and reports the MPEG I+P frame's end-to-end bound.
func BenchmarkE3_EndToEnd(b *testing.B) {
	res := figure1Bounds(b)
	b.ReportMetric(res.Flow(0).Frames[0].Response.Milliseconds(), "IP_bound_ms")
	b.ReportMetric(float64(res.Iterations), "holistic_iters")
	runExperiment(b, "E3")
}

// BenchmarkE4_Holistic regenerates the convergence sweep of Section 3.5.
func BenchmarkE4_Holistic(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5_AnalysisVsSim regenerates the soundness validation: the
// experiment itself fails if any simulated response exceeds its bound.
func BenchmarkE5_AnalysisVsSim(b *testing.B) {
	res := figure1Bounds(b)
	nw := mustFigure1Scenario(b)
	s, err := sim.New(nw, sim.Config{Duration: 2 * units.Second})
	if err != nil {
		b.Fatal(err)
	}
	obs, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	worstRatio := 0.0
	for i := range obs.Flows {
		for k := range obs.Flows[i].PerFrame {
			o := float64(obs.Flows[i].PerFrame[k].MaxResponse)
			bd := float64(res.Flow(i).Frames[k].Response)
			if bd > 0 && o/bd > worstRatio {
				worstRatio = o / bd
			}
		}
	}
	b.ReportMetric(100*worstRatio, "worst_obs_over_bound_pct")
	runExperiment(b, "E5")
}

// BenchmarkE6_Admission regenerates the GMF-vs-sporadic admission contest.
func BenchmarkE6_Admission(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7_Scaling regenerates the multihop scaling sweep.
func BenchmarkE7_Scaling(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8_SwitchSizing regenerates the Conclusions' 48-port sizing
// table and reports the 16-CPU CIRC (paper: 11.1 µs).
func BenchmarkE8_SwitchSizing(b *testing.B) {
	p := network.DefaultSwitchParams()
	p.Processors = 16
	topo := network.NewTopology()
	if err := topo.AddSwitch("big", p); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		id := network.NodeID(fmt.Sprintf("h%02d", i))
		if err := topo.AddHost(id); err != nil {
			b.Fatal(err)
		}
		if err := topo.AddDuplexLink("big", id, units.Gbps, 0); err != nil {
			b.Fatal(err)
		}
	}
	circ, err := topo.CIRC("big")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(circ.Microseconds(), "CIRC16_us")
	runExperiment(b, "E8")
}

// BenchmarkE9_Ablation regenerates the ModePaper-vs-ModeSound comparison.
func BenchmarkE9_Ablation(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10_Distribution regenerates the response-time distribution
// study (simulated percentiles vs analytic bound).
func BenchmarkE10_Distribution(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11_Breakdown regenerates the breakdown-load and
// priority-policy study and reports the 10 Mbit/s breakdown scale.
func BenchmarkE11_Breakdown(b *testing.B) {
	nw := mustFigure1Scenario(b)
	sys := gmfnet.NewSystem(nw.Topo)
	for _, fs := range nw.Flows() {
		sys.MustAddFlow(fs)
	}
	bd, err := sys.FindBreakdown(gmfnet.BreakdownOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(bd.Scale, "breakdown_scale")
	runExperiment(b, "E11")
}

// BenchmarkE12_EDFGap regenerates the paper-vs-idealized-EDF admission
// comparison on a single link.
func BenchmarkE12_EDFGap(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13_Buffers regenerates the queue high-water-mark study.
func BenchmarkE13_Buffers(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkAnalyzeHolistic measures the raw analysis cost on the Figure 1
// scenario (no table rendering).
func BenchmarkAnalyzeHolistic(b *testing.B) {
	nw := mustFigure1Scenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := core.NewAnalyzer(nw, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := an.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSecond measures simulator throughput: one simulated
// second of the Figure 1 scenario per iteration.
func BenchmarkSimulateSecond(b *testing.B) {
	nw := mustFigure1Scenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(nw, sim.Config{Duration: units.Second})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionRequest measures one admission decision (tentative add
// + holistic analysis + rollback or commit).
func BenchmarkAdmissionRequest(b *testing.B) {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: units.Gbps}))
	ctl, err := sys.NewAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ctl.Request(&gmfnet.FlowSpec{
			Flow:     gmfnet.VoIP(fmt.Sprintf("c%d", i), gmfnet.VoIPOptions{Deadline: 500 * units.Millisecond}),
			Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
			Priority: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Admitted {
			b.Fatalf("request %d rejected; raise the bench link rate", i)
		}
	}
}

// admissionBenchSetup builds the network.Campus topology used by the
// BenchmarkAdmission* pair and the resident local VoIP flows that make
// up the steady state.
func admissionBenchSetup(b *testing.B, switches, hostsPer, residents int) (*network.Topology, []*network.FlowSpec) {
	b.Helper()
	topo, _, err := network.Campus(switches, hostsPer)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]*network.FlowSpec, 0, residents)
	for i := 0; i < residents; i++ {
		s := i % switches
		a := (i / switches) % hostsPer
		c := (a + 1) % hostsPer
		specs = append(specs, &network.FlowSpec{
			Flow: trace.VoIP(fmt.Sprintf("res%d", i), trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route: []network.NodeID{
				network.NodeID(fmt.Sprintf("h%d_%d", s, a)),
				network.NodeID(fmt.Sprintf("sw%d", s)),
				network.NodeID(fmt.Sprintf("h%d_%d", s, c)),
			},
			Priority: 2,
		})
	}
	return topo, specs
}

func admissionProbe(i int) *network.FlowSpec {
	return &network.FlowSpec{
		Flow:     trace.VoIP(fmt.Sprintf("probe%d", i), trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
		Route:    []network.NodeID{"h0_0", "sw0", "h0_2"},
		Priority: 2,
	}
}

// BenchmarkAdmissionIncremental64 measures one admission + departure
// cycle through the engine-backed controller at a 64-flow steady state:
// snapshot, validate the newcomer only, delta-analyse its interference
// neighbourhood, and (for the departure) re-converge the affected flows.
func BenchmarkAdmissionIncremental64(b *testing.B) {
	topo, specs := admissionBenchSetup(b, 8, 4, 64)
	ctl, err := admission.NewController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitCycle(b, ctl, specs, admissionProbe)
}

// BenchmarkAdmissionCold64 is the identical workload through the
// from-scratch baseline: every request rebuilds a cold Analyzer and runs
// the full holistic fixpoint over all 65 flows.
func BenchmarkAdmissionCold64(b *testing.B) {
	topo, specs := admissionBenchSetup(b, 8, 4, 64)
	ctl, err := admission.NewColdController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitCycle(b, ctl, specs, admissionProbe)
}

// residentSpecs builds n local VoIP flows over an arbitrary generated
// topology whose hosts come grouped under a shared switch: resident i is
// a call between two hosts of group i mod (len(hosts)/group).
func residentSpecs(b *testing.B, topo *network.Topology, hosts []network.NodeID, group, n int) []*network.FlowSpec {
	b.Helper()
	groups := len(hosts) / group
	specs := make([]*network.FlowSpec, 0, n)
	for i := 0; i < n; i++ {
		g := i % groups
		a := (i / groups) % group
		c := (a + 1) % group
		route, err := topo.Route(hosts[g*group+a], hosts[g*group+c])
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, &network.FlowSpec{
			Flow:     trace.VoIP(fmt.Sprintf("res%d", i), trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    route,
			Priority: 2,
		})
	}
	return specs
}

// benchAdmitCycle admits the residents through the controller and then
// measures one admission + departure cycle per iteration.
func benchAdmitCycle(b *testing.B, ctl interface {
	Request(fs *network.FlowSpec) (admission.Decision, error)
	Release(name string) (bool, error)
}, residents []*network.FlowSpec, probe func(i int) *network.FlowSpec) {
	b.Helper()
	for _, fs := range residents {
		d, err := ctl.Request(fs)
		if err != nil {
			b.Fatal(err)
		}
		if !d.Admitted {
			b.Fatalf("resident %s rejected during setup", fs.Flow.Name)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ctl.Request(probe(i))
		if err != nil {
			b.Fatal(err)
		}
		if !d.Admitted {
			b.Fatal("probe rejected")
		}
		if _, err := ctl.Release(d.FlowName); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionIncremental256 scales the admission cycle to a
// 256-flow steady state on a 16-switch industrial ring. With the arena
// engine a probe costs the O(1) snapshot plus the delta analysis of its
// local neighbourhood; the total resident count enters only through the
// departure's index shift, not through any per-request copy.
func BenchmarkAdmissionIncremental256(b *testing.B) {
	topo, hosts, err := network.Ring(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := admission.NewController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitCycle(b, ctl, residentSpecs(b, topo, hosts, 4, 256), admissionProbe)
}

// BenchmarkAdmissionCold256 is the identical 256-flow workload through the
// from-scratch baseline: every request re-runs the full holistic fixpoint
// over all 257 flows.
func BenchmarkAdmissionCold256(b *testing.B) {
	topo, hosts, err := network.Ring(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := admission.NewColdController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitCycle(b, ctl, residentSpecs(b, topo, hosts, 4, 256), admissionProbe)
}

// BenchmarkAdmissionSequential256 admits 256 VoIP flows one by one
// through RequestAll on the 16-switch industrial ring: 256 snapshots,
// 256 delta worklists, 256 detached result copies. It is the baseline
// the batched path is measured against.
func BenchmarkAdmissionSequential256(b *testing.B) {
	benchBatchAdmission(b, false)
}

// BenchmarkAdmissionBatch256 admits the identical 256 flows as one
// RequestBatch: one snapshot, one delta worklist seeded with every
// newcomer, one converged fixpoint, one result copy. The worklist setup
// and result-copy overhead amortise across the whole batch.
func BenchmarkAdmissionBatch256(b *testing.B) {
	benchBatchAdmission(b, true)
}

// benchBatchAdmission measures admitting a 256-flow batch into an empty
// 16-switch ring, batched or sequential, one full batch per iteration.
func benchBatchAdmission(b *testing.B, batched bool) {
	b.Helper()
	topo, hosts, err := network.Ring(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	specs := residentSpecs(b, topo, hosts, 4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl, err := admission.NewController(network.New(topo), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var ds []admission.Decision
		if batched {
			ds, err = ctl.RequestBatch(specs)
		} else {
			ds, err = ctl.RequestAll(specs)
		}
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range ds {
			if !d.Admitted {
				b.Fatalf("%s rejected during batch bench", d.FlowName)
			}
		}
	}
}

// BenchmarkAdmissionFatTreeBatch256 / BenchmarkAdmissionSharded256 are
// the mid-scale contended pair: the same 256-flow batch (~6% heavy
// video, forcing evictions) into an empty 4-ary fat tree, decided
// monolithically vs closure-sharded. (BenchmarkAdmissionBatch256 stays
// the uncontended monolithic reference on the one-closure ring, where
// sharding cannot help by construction.)
func BenchmarkAdmissionFatTreeBatch256(b *testing.B) {
	topo, hosts, err := network.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchInto(b, topo, contendedSpecs(b, topo, hosts, 256), false)
}

// BenchmarkAdmissionSharded256 is the sharded side of the mid-scale
// contended pair; see BenchmarkAdmissionFatTreeBatch256.
func BenchmarkAdmissionSharded256(b *testing.B) {
	topo, hosts, err := network.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchInto(b, topo, contendedSpecs(b, topo, hosts, 256), true)
}

// contendedSpecs builds n edge-local flows like residentSpecs but makes
// every 16th a ~67 Mbit/s CBR stream, so edge links overload and the
// batch exercises the eviction path — the realistic contended-admission
// case, and the one where batch cost structure differs most between the
// monolithic and the sharded controller.
func contendedSpecs(b *testing.B, topo *network.Topology, hosts []network.NodeID, n int) []*network.FlowSpec {
	b.Helper()
	specs := residentSpecs(b, topo, hosts, 4, n)
	for i := 15; i < n; i += 16 {
		specs[i] = &network.FlowSpec{
			Flow:     trace.CBRVideo(fmt.Sprintf("heavy%d", i), 250000, 30*units.Millisecond, 250*units.Millisecond),
			Route:    specs[i].Route,
			Priority: 1,
		}
	}
	return specs
}

// BenchmarkAdmissionBatch1024 admits a contended 1024-flow batch (~6%
// heavy video, forcing evictions) into an empty 8-ary fat tree as one
// monolithic RequestBatch: the eviction search bisects for schedulable
// prefixes of the *whole* staged batch, so every probe pays add/remove
// churn and re-convergence across all 128 closures.
func BenchmarkAdmissionBatch1024(b *testing.B) {
	benchFatTreeBatch(b, false)
}

// BenchmarkAdmissionSharded1024 admits the identical contended batch
// through the closure-sharded controller. The batch splits into 128
// independent groups (one per interference closure), so the eviction
// bisection runs inside 8-flow groups — and closures without violators
// never probe at all. Decisions are identical to the monolithic path
// (differential-tested); the win is the scoped eviction search, on any
// core count, since the groups are decided one after another.
func BenchmarkAdmissionSharded1024(b *testing.B) {
	benchFatTreeBatch(b, true)
}

// benchFatTreeBatch measures admitting the contended 1024-flow batch
// into an empty 8-ary fat tree, monolithic or sharded, one full batch
// per iteration.
func benchFatTreeBatch(b *testing.B, sharded bool) {
	b.Helper()
	topo, hosts, err := network.FatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchInto(b, topo, contendedSpecs(b, topo, hosts, 1024), sharded)
}

// benchBatchInto drives one RequestBatch of the specs into an empty
// controller per iteration, monolithic or sharded, and reports the
// rejection count (identical across both controllers by construction;
// zero rejections would mean the eviction path went unexercised).
func benchBatchInto(b *testing.B, topo *network.Topology, specs []*network.FlowSpec, sharded bool) {
	b.Helper()
	b.ReportAllocs()
	rejected := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ds []admission.Decision
		var err error
		if sharded {
			var ctl *admission.ShardedController
			ctl, err = admission.NewShardedController(network.New(topo), core.Config{})
			if err == nil {
				ds, err = ctl.RequestBatch(specs)
			}
		} else {
			var ctl *admission.Controller
			ctl, err = admission.NewController(network.New(topo), core.Config{})
			if err == nil {
				ds, err = ctl.RequestBatch(specs)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		rejected = 0
		for _, d := range ds {
			if !d.Admitted {
				rejected++
			}
		}
		if rejected == 0 {
			b.Fatal("contended batch admitted everything; eviction path unexercised")
		}
	}
	b.ReportMetric(float64(rejected), "rejected")
}

// BenchmarkAdmissionShardedCycle1024 is the sharded counterpart of
// BenchmarkAdmissionIncremental1024: one admission + departure cycle at
// a 1024-flow steady state on the 8-ary fat tree. The probe's decision
// and the departure touch only the probe's ~8-flow shard — snapshot,
// delta analysis, result copy and index bookkeeping all scale with the
// closure, not with the 1024 residents (the monolithic engine's
// detached result copy alone is O(flows) per request).
func BenchmarkAdmissionShardedCycle1024(b *testing.B) {
	topo, hosts, err := network.FatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// The probe rides inside one resident closure (h0_0_0 -> h0_0_1
	// shares both directed links with the a=0 residents), so a cycle is
	// pure one-shard work; a closure-bridging probe would additionally
	// pay one shard fusion + re-split per cycle.
	probe := func(i int) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(fmt.Sprintf("probe%d", i), trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    []network.NodeID{"h0_0_0", "edge0_0", "h0_0_1"},
			Priority: 2,
		}
	}
	benchAdmitCycle(b, ctl, residentSpecs(b, topo, hosts, 4, 1024), probe)
}

// BenchmarkAdmissionIncremental1024 pushes the steady state to 1024 flows
// on an 8-ary fat tree (128 hosts, 80 switches) — the scale where the
// pre-arena engine's per-request deep-copy snapshot dominated.
func BenchmarkAdmissionIncremental1024(b *testing.B) {
	topo, hosts, err := network.FatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := admission.NewController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	probe := func(i int) *network.FlowSpec {
		return &network.FlowSpec{
			Flow:     trace.VoIP(fmt.Sprintf("probe%d", i), trace.VoIPOptions{Deadline: 100 * units.Millisecond}),
			Route:    []network.NodeID{"h0_0_0", "edge0_0", "h0_0_2"},
			Priority: 2,
		}
	}
	benchAdmitCycle(b, ctl, residentSpecs(b, topo, hosts, 4, 1024), probe)
}

// benchRingCycle measures one admission + departure cycle through the
// monolithic view-based controller at a steady state of `residents`
// switch-local VoIP flows on a `switches`-switch ring. Four hosts per
// switch and four residents per host group keep every interference
// closure at 16 flows regardless of scale, so the pair below varies ONLY
// the total flow count: an O(affected) cycle stays flat from 1024 to
// 4096 residents, while any O(flows) per-request cost (the pre-view
// engine's detached result copy and snapshot header copy, both gone)
// scales the cycle 4×.
func benchRingCycle(b *testing.B, switches, residents int) {
	b.Helper()
	topo, hosts, err := network.Ring(switches, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := admission.NewController(network.New(topo), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitCycle(b, ctl, residentSpecs(b, topo, hosts, 4, residents), admissionProbe)
}

// BenchmarkAdmissionCycle1024 is the monolithic steady-state cycle at
// 1024 residents (64-switch ring, 16-flow closures); pair it with
// BenchmarkAdmissionCycle4096 to read the scaling exponent.
func BenchmarkAdmissionCycle1024(b *testing.B) { benchRingCycle(b, 64, 1024) }

// BenchmarkAdmissionCycle4096 is the same 16-flow-closure cycle at 4096
// residents on a 256-switch ring: 4× the flows, identical affected set.
// Near-equal ns/op with BenchmarkAdmissionCycle1024 is the O(affected)
// acceptance check of the copy-on-read result path.
func BenchmarkAdmissionCycle4096(b *testing.B) { benchRingCycle(b, 256, 4096) }

// BenchmarkAdmissionVideoMix256 admits the 256-stream bursty GMF video
// mix (network.VideoMix: IBBPBBPBB GOPs in three rate profiles, every
// fourth stream crossing the ring backbone) as one batch per iteration
// and reports the admitted/rejected split. The nine-frame cycles make
// each per-flow analysis an order of magnitude heavier than the VoIP
// benchmarks — the workload where per-request result copies used to be
// cheap relative to analysis, and batched eviction plus O(affected)
// results still pay.
func BenchmarkAdmissionVideoMix256(b *testing.B) {
	topo, specs, err := network.VideoMix(16, 4, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	admitted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl, err := admission.NewController(network.New(topo), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := ctl.RequestBatch(specs)
		if err != nil {
			b.Fatal(err)
		}
		admitted = 0
		for _, d := range ds {
			if d.Admitted {
				admitted++
			}
		}
		if admitted == 0 {
			b.Fatal("video mix admitted nothing")
		}
	}
	b.ReportMetric(float64(admitted), "admitted")
	b.ReportMetric(float64(len(specs)-admitted), "rejected")
}

// BenchmarkAdmissionSharded4096 scales the contended batch to 4096
// flows on a 256-switch ring (256 independent 16-flow closures, one
// heavy per closure) through the sharded controller: the closure-rich
// regime, 256 groups each decided and evicted inside its own closure.
func BenchmarkAdmissionSharded4096(b *testing.B) {
	topo, hosts, err := network.Ring(256, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchInto(b, topo, contendedSpecs(b, topo, hosts, 4096), true)
}

// figure1Bounds computes the holistic bounds of the shared E3/E5 scenario.
func figure1Bounds(b *testing.B) *core.Result {
	b.Helper()
	nw := mustFigure1Scenario(b)
	an, err := core.NewAnalyzer(nw, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// mustFigure1Scenario rebuilds the E3/E5 scenario: MPEG + VoIP + CBR cross
// traffic on Figure 1 at 10 Mbit/s.
func mustFigure1Scenario(b *testing.B) *network.Network {
	b.Helper()
	topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
	nw := network.New(topo)
	specs := []*network.FlowSpec{
		{
			Flow:     trace.MPEGIBBPBBPBB("mpeg", trace.MPEGOptions{Deadline: 300 * units.Millisecond}),
			Route:    []network.NodeID{"0", "4", "6", "3"},
			Priority: 2,
		},
		{
			Flow:     trace.VoIP("voip", trace.VoIPOptions{Deadline: 100 * units.Millisecond, Jitter: 500 * units.Microsecond}),
			Route:    []network.NodeID{"2", "5", "6", "3"},
			Priority: 3,
		},
		{
			Flow:     trace.CBRVideo("cbr", 4000, 40*units.Millisecond, 300*units.Millisecond),
			Route:    []network.NodeID{"1", "4", "6", "3"},
			Priority: 1,
		},
	}
	for _, s := range specs {
		if _, err := nw.AddFlow(s); err != nil {
			b.Fatal(err)
		}
	}
	return nw
}

// BenchmarkAdmissionOpenLoop4096 replays a synthesized open-loop
// workload — 4096 requests with exponential holds over a 512-group
// backbone, the thousand-closure regime cmd/gmfnet-load drives at
// million-request scale — through the sharded controller with
// counters-only retention. One iteration is the whole replay, so the
// archive tracks the load harness's steady-state cost per commit.
func BenchmarkAdmissionOpenLoop4096(b *testing.B) {
	spec := workload.TopoSpec{Kind: "backbone", Switches: 16, Fanout: 16, Hosts: 2}
	h, ops, err := workload.Synthesize(spec, workload.Config{
		Seed: 1, Requests: 4096, Hold: 1024, Local: 1, Heavy: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	topo, _, err := h.Topo.Build()
	if err != nil {
		b.Fatal(err)
	}
	// Rebuild the flow specs once; replays share them like every other
	// admission bench shares its batch across iterations.
	specs := make([]*network.FlowSpec, len(ops))
	for i := range ops {
		if ops[i].Op != "add" {
			continue
		}
		if specs[i], err = ops[i].Spec(topo); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ctl.SetRetention(admission.RetainCounters)
		var batch []*network.FlowSpec
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, err := ctl.RequestBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
		for i := range ops {
			if ops[i].Op == "add" {
				batch = append(batch, specs[i])
				if len(batch) == 64 {
					flush()
				}
				continue
			}
			flush()
			if _, err := ctl.Release(ops[i].Name); err != nil {
				b.Fatal(err)
			}
		}
		flush()
		if err := ctl.Close(); err != nil {
			b.Fatal(err)
		}
		if got := ctl.Admitted() + ctl.Rejected(); got != 4096 {
			b.Fatalf("decided %d of 4096", got)
		}
	}
}
