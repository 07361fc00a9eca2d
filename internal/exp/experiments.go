package exp

import (
	"fmt"
	"math/rand"
	"time"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/ether"
	"gmfnet/internal/network"
	"gmfnet/internal/report"
	"gmfnet/internal/sim"
	"gmfnet/internal/sporadic"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// E1LinkParameters reproduces Figures 3 and 4: the per-frame parameters of
// the MPEG stream on link(0,4) at 10 Mbit/s, and the aggregates CSUM, NSUM,
// TSUM (eqs. 4-6) plus MFT (eq. 1).
func E1LinkParameters() ([]*report.Table, error) {
	rate := 10 * units.Mbps
	flow := trace.MPEGIBBPBBPBB("mpeg", trace.MPEGOptions{})
	d, err := ether.DemandFor(flow, rate, false)
	if err != nil {
		return nil, err
	}

	perFrame := report.NewTable(
		"E1a: per-frame parameters of the MPEG flow on link(0,4) at 10 Mbit/s",
		"k", "kind", "payload(B)", "udp bits", "eth frames", "C_ik", "T_ik", "GJ_ik")
	kinds := []string{"I+P", "B", "B", "P", "B", "B", "P", "B", "B"}
	for k := 0; k < flow.N(); k++ {
		udp := ether.UDPBits(flow.Frames[k].PayloadBits, false)
		perFrame.AddRowf(
			k, kinds[k],
			flow.Frames[k].PayloadBits/8,
			udp,
			d.Count(k),
			d.Cost(k),
			flow.Frames[k].MinSep,
			flow.Frames[k].Jitter,
		)
	}

	agg := report.NewTable("E1b: aggregates (eqs. 1, 4-6)", "quantity", "value", "paper")
	agg.AddRowf("TSUM", d.TSUM(), "270ms")
	agg.AddRowf("CSUM", d.CSUM(), "illegible in source (docs/ARCHITECTURE.md F7)")
	agg.AddRowf("NSUM", d.NSUM(), "illegible in source (docs/ARCHITECTURE.md F7)")
	agg.AddRowf("MFT(link(0,4))", ether.MFT(rate), "12304 bits / 10^7 bit/s = 1230.4µs")
	agg.AddRowf("utilisation", fmt.Sprintf("%.4f", d.Utilization()), "")
	return []*report.Table{perFrame, agg}, nil
}

// E2CIRC reproduces the Section 3.3 example: a task is serviced once every
// CIRC(N) = NINTERFACES(N) × (CROUTE+CSEND); with the Click measurements
// and 4 interfaces that is 14.8 µs.
func E2CIRC() ([]*report.Table, error) {
	t := report.NewTable(
		"E2: CIRC(N) vs number of interfaces (CROUTE=2.7µs, CSEND=1.0µs, 1 CPU)",
		"interfaces", "CIRC", "paper")
	for nif := 2; nif <= 8; nif++ {
		topo := network.NewTopology()
		if err := topo.AddSwitch("s", network.DefaultSwitchParams()); err != nil {
			return nil, err
		}
		for i := 0; i < nif; i++ {
			id := network.NodeID(fmt.Sprintf("h%d", i))
			if err := topo.AddHost(id); err != nil {
				return nil, err
			}
			if err := topo.AddDuplexLink("s", id, units.Gbps, 0); err != nil {
				return nil, err
			}
		}
		circ, err := topo.CIRC("s")
		if err != nil {
			return nil, err
		}
		note := ""
		if nif == 4 {
			note = "14.8µs (Fig. 5 example)"
		}
		t.AddRowf(nif, circ, note)
	}
	return []*report.Table{t}, nil
}

// E3EndToEnd reproduces Figure 6 on the Figure 1/2 network: the per-stage
// decomposition of the MPEG flow's end-to-end bound with cross traffic.
func E3EndToEnd() ([]*report.Table, error) {
	nw, err := figure1Scenario(10 * units.Mbps)
	if err != nil {
		return nil, err
	}
	an, err := core.NewAnalyzer(nw, core.Config{})
	if err != nil {
		return nil, err
	}
	res, err := an.Analyze()
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("exp: E3 analysis did not converge")
	}

	stages := report.NewTable(
		"E3a: per-stage response-time bounds of the MPEG flow (frame 0 = I+P), route 0→4→6→3",
		"stage", "entry jitter", "bound")
	mp := res.Flow(0)
	for _, st := range mp.Frames[0].Stages {
		stages.AddRowf(st.Resource, st.EntryJitter, st.Response)
	}

	frames := report.NewTable(
		"E3b: end-to-end bounds per flow and frame (holistic fixpoint)",
		"flow", "frame", "bound", "deadline", "meets")
	for i := range res.Flows {
		fr := res.Flow(i)
		for k := range fr.Frames {
			frames.AddRowf(fr.Name, k, fr.Frames[k].Response, fr.Frames[k].Deadline, fr.Frames[k].Meets())
		}
	}
	meta := report.NewTable("E3c: analysis metadata", "quantity", "value")
	meta.AddRowf("holistic iterations", res.Iterations)
	meta.AddRowf("schedulable", res.Schedulable())
	return []*report.Table{stages, frames, meta}, nil
}

// E4Holistic measures the holistic iteration count and verdicts as the
// number of random flows grows on the Figure 1 network.
func E4Holistic() ([]*report.Table, error) {
	t := report.NewTable(
		"E4: holistic convergence vs workload size (Figure 1 at 100 Mbit/s, random GMF flows)",
		"flows", "iterations", "converged", "schedulable")
	hosts := []network.NodeID{"0", "1", "2", "3"}
	for _, n := range []int{2, 5, 10, 20, 40} {
		rng := rand.New(rand.NewSource(int64(n)))
		topo, err := network.Figure1(network.Figure1Options{Rate: 100 * units.Mbps})
		if err != nil {
			return nil, err
		}
		nw := network.New(topo)
		for f := 0; f < n; f++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			route, err := topo.Route(src, dst)
			if err != nil {
				return nil, err
			}
			flow := trace.Random(fmt.Sprintf("r%d", f), rng, trace.RandomOptions{
				MaxPayloadBytes: 8000,
				DeadlineFactor:  3,
				MaxJitter:       units.Millisecond,
			})
			if _, err := nw.AddFlow(&network.FlowSpec{
				Flow: flow, Route: route,
				Priority: network.Priority(rng.Intn(4)),
			}); err != nil {
				return nil, err
			}
		}
		an, err := core.NewAnalyzer(nw, core.Config{})
		if err != nil {
			return nil, err
		}
		res, err := an.Analyze()
		if err != nil {
			return nil, err
		}
		t.AddRowf(n, res.Iterations, res.Converged, res.Schedulable())
	}
	return []*report.Table{t}, nil
}

// E5AnalysisVsSim validates soundness: on the Figure 1 scenario the
// analytic bound must dominate the adversarial simulator's worst observed
// response for every flow and frame.
func E5AnalysisVsSim() ([]*report.Table, error) {
	nw, err := figure1Scenario(10 * units.Mbps)
	if err != nil {
		return nil, err
	}
	an, err := core.NewAnalyzer(nw, core.Config{})
	if err != nil {
		return nil, err
	}
	res, err := an.Analyze()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(nw, sim.Config{Duration: 3 * units.Second})
	if err != nil {
		return nil, err
	}
	obs, err := s.Run()
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		"E5: analytic bound vs simulated worst case (3 s adversarial run)",
		"flow", "frame", "observed max", "bound", "obs/bound", "violation")
	violations := 0
	for i := range obs.Flows {
		for k := range obs.Flows[i].PerFrame {
			o := obs.Flows[i].PerFrame[k].MaxResponse
			b := res.Flow(i).Frames[k].Response
			viol := o > b
			if viol {
				violations++
			}
			t.AddRowf(obs.Flows[i].Name, k, o, b, ratio(o, b), viol)
		}
	}
	meta := report.NewTable("E5b: summary", "quantity", "value")
	meta.AddRowf("events simulated", obs.Events)
	meta.AddRowf("violations", violations)
	if violations > 0 {
		return []*report.Table{t, meta}, fmt.Errorf("exp: E5 found %d bound violations", violations)
	}
	return []*report.Table{t, meta}, nil
}

// E6Admission compares admission counts under the GMF analysis and the
// sporadic collapse as identical VBR video requests arrive.
func E6Admission() ([]*report.Table, error) {
	mkFlow := func(i int) *network.FlowSpec {
		// VBR video: a large key frame then five small deltas.
		f := trace.MPEGIBBPBBPBB(fmt.Sprintf("vbr%d", i), trace.MPEGOptions{
			IPBytes: 24000, PBytes: 3000, BBytes: 800,
			Deadline: 250 * units.Millisecond,
		})
		routes := [][]network.NodeID{
			{"0", "4", "6", "3"},
			{"1", "4", "6", "3"},
			{"2", "5", "6", "3"},
		}
		return &network.FlowSpec{Flow: f, Route: routes[i%len(routes)], Priority: 1}
	}

	run := func(useSporadic bool) (int, error) {
		topo, err := network.Figure1(network.Figure1Options{Rate: 100 * units.Mbps})
		if err != nil {
			return 0, err
		}
		ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
		if err != nil {
			return 0, err
		}
		for i := 0; i < 48; i++ {
			fs := mkFlow(i)
			if useSporadic {
				fs = &network.FlowSpec{
					Flow:     fs.Flow.Sporadic(),
					Route:    fs.Route,
					Priority: fs.Priority,
				}
			}
			d, err := ctl.Request(fs)
			if err != nil {
				return 0, err
			}
			if !d.Admitted {
				break
			}
		}
		return ctl.Admitted(), nil
	}

	gmfN, err := run(false)
	if err != nil {
		return nil, err
	}
	spoN, err := run(true)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"E6: flows admitted before first rejection (identical VBR requests, Figure 1 at 100 Mbit/s)",
		"model", "admitted")
	t.AddRowf("GMF (paper)", gmfN)
	t.AddRowf("sporadic collapse", spoN)
	if gmfN <= spoN {
		return []*report.Table{t}, fmt.Errorf("exp: E6 expected GMF (%d) to admit more than sporadic (%d)", gmfN, spoN)
	}
	return []*report.Table{t}, nil
}

// E7Scaling reports the bound of a flow crossing 1..8 switches and the
// analysis wall time.
func E7Scaling() ([]*report.Table, error) {
	t := report.NewTable(
		"E7: end-to-end bound and analysis runtime vs route length (100 Mbit/s chain)",
		"switches", "stages", "worst bound", "iterations", "analysis time")
	for _, hops := range []int{1, 2, 4, 6, 8} {
		nw, mainIdx, err := chainScenario(hops, 100*units.Mbps)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		an, err := core.NewAnalyzer(nw, core.Config{})
		if err != nil {
			return nil, err
		}
		res, err := an.Analyze()
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if !res.Converged {
			return nil, fmt.Errorf("exp: E7 with %d switches did not converge", hops)
		}
		fr := res.Flow(mainIdx)
		t.AddRowf(hops, len(fr.Frames[0].Stages), fr.MaxResponse(), res.Iterations, elapsed.Round(time.Microsecond))
	}
	return []*report.Table{t}, nil
}

// E8SwitchSizing reproduces the Conclusions example: CIRC of a 48-port
// switch as the processor count grows, against the 1 Gbit/s MFT it must
// keep up with. With 16 processors CIRC = 11.1 µs < MFT = 12.304 µs.
func E8SwitchSizing() ([]*report.Table, error) {
	mft := ether.MFT(units.Gbps)
	t := report.NewTable(
		"E8: 48-port software switch sizing (Click costs), line rate 1 Gbit/s",
		"processors", "interfaces/CPU", "CIRC", "CIRC <= MFT(1G)=12.304µs", "paper")
	for _, m := range []int{1, 2, 4, 8, 16} {
		p := network.DefaultSwitchParams()
		p.Processors = m
		topo := network.NewTopology()
		if err := topo.AddSwitch("big", p); err != nil {
			return nil, err
		}
		for i := 0; i < 48; i++ {
			id := network.NodeID(fmt.Sprintf("h%02d", i))
			if err := topo.AddHost(id); err != nil {
				return nil, err
			}
			if err := topo.AddDuplexLink("big", id, units.Gbps, 0); err != nil {
				return nil, err
			}
		}
		circ, err := topo.CIRC("big")
		if err != nil {
			return nil, err
		}
		note := ""
		if m == 16 {
			note = "11.1µs, 'comfortably 1 Gbit/s'"
		}
		t.AddRowf(m, units.CeilDiv(48, int64(m)), circ, circ <= mft, note)
	}
	return []*report.Table{t}, nil
}

// E9Ablation compares the two formula variants (docs/ARCHITECTURE.md, F3-F5) against
// each other and against the simulator on the Figure 1 scenario.
func E9Ablation() ([]*report.Table, error) {
	nw, err := figure1Scenario(10 * units.Mbps)
	if err != nil {
		return nil, err
	}
	bound := func(mode core.Mode) (*core.Result, error) {
		an, err := core.NewAnalyzer(nw, core.Config{Mode: mode})
		if err != nil {
			return nil, err
		}
		return an.Analyze()
	}
	sound, err := bound(core.ModeSound)
	if err != nil {
		return nil, err
	}
	paper, err := bound(core.ModePaper)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(nw, sim.Config{Duration: 3 * units.Second})
	if err != nil {
		return nil, err
	}
	obs, err := s.Run()
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		"E9: ModeSound vs ModePaper bounds vs simulation (worst frame per flow)",
		"flow", "observed max", "paper bound", "sound bound", "sound/paper", "paper violated")
	for i := range obs.Flows {
		o := obs.Flows[i].MaxResponse()
		pb := paper.Flow(i).MaxResponse()
		sb := sound.Flow(i).MaxResponse()
		t.AddRowf(obs.Flows[i].Name, o, pb, sb, ratio(sb, pb), o > pb)
	}
	return []*report.Table{t}, nil
}

// CompareModels exposes the sporadic comparison for reuse by examples.
func CompareModels(nw *network.Network) (*sporadic.Comparison, error) {
	return sporadic.Compare(nw, core.Config{})
}
