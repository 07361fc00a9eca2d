package gmfnet_test

import (
	"fmt"

	"gmfnet"
)

// ExampleSystem_Analyze bounds the Figure 3 MPEG flow on the Figure 1
// network at 10 Mbit/s — the paper's worked example.
func ExampleSystem_Analyze() {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 10 * gmfnet.Mbps}))
	sys.MustAddFlow(&gmfnet.FlowSpec{
		Flow:     gmfnet.MPEGIBBPBBPBB("video", gmfnet.MPEGOptions{Deadline: 300 * gmfnet.Millisecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 2,
	})
	res, err := sys.Analyze(gmfnet.AnalysisConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("schedulable:", res.Schedulable())
	fmt.Println("I+P bound:", res.Flow(0).Frames[0].Response)
	// Output:
	// schedulable: true
	// I+P bound: 49.163ms
}

// ExampleSystem_UtilizationReport prints the bottleneck resource of a
// two-flow network.
func ExampleSystem_UtilizationReport() {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 10 * gmfnet.Mbps}))
	for _, src := range []gmfnet.NodeID{"0", "1"} {
		sys.MustAddFlow(&gmfnet.FlowSpec{
			Flow:     gmfnet.CBRVideo("cam-"+string(src), 5000, 20*gmfnet.Millisecond, 100*gmfnet.Millisecond),
			Route:    []gmfnet.NodeID{src, "4", "6", "3"},
			Priority: 1,
		})
	}
	loads, err := sys.UtilizationReport()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("bottleneck: %v (%.4f)\n", loads[0].Resource, loads[0].Utilization)
	// Output:
	// bottleneck: link(4,6) (0.4192)
}

// ExampleSystem_FindBreakdown estimates how much a workload can grow
// before the admission test starts rejecting.
func ExampleSystem_FindBreakdown() {
	sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 10 * gmfnet.Mbps}))
	sys.MustAddFlow(&gmfnet.FlowSpec{
		Flow:     gmfnet.VoIP("call", gmfnet.VoIPOptions{Deadline: 100 * gmfnet.Millisecond}),
		Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
		Priority: 3,
	})
	bd, err := sys.FindBreakdown(gmfnet.BreakdownOptions{MaxScale: 16})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("has headroom:", bd.Scale > 1)
	// Output:
	// has headroom: true
}

// ExampleSystem_NewAdmissionController admits VoIP calls on a 10 Mbit/s
// edge until the first rejection, then admits identical VBR video
// requests under the GMF model and under its sporadic collapse.
func ExampleSystem_NewAdmissionController() {
	routes := [][]gmfnet.NodeID{
		{"0", "4", "6", "3"},
		{"1", "4", "6", "3"},
		{"2", "5", "6", "3"},
	}
	// admitUntilReject requests flows from next until the first
	// rejection (or max requests) and reports the admitted count.
	admitUntilReject := func(rate gmfnet.BitRate, max int, next func(i int) *gmfnet.FlowSpec) int {
		sys := gmfnet.NewSystem(gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: rate}))
		ctl, err := sys.NewAdmissionController(gmfnet.AnalysisConfig{})
		if err != nil {
			fmt.Println(err)
			return 0
		}
		for i := 0; i < max; i++ {
			d, err := ctl.Request(next(i))
			if err != nil {
				fmt.Println(err)
				return 0
			}
			if !d.Admitted {
				fmt.Printf("%s REJECTED\n", d.FlowName)
				break
			}
		}
		return ctl.Admitted()
	}
	calls := admitUntilReject(10*gmfnet.Mbps, 200, func(i int) *gmfnet.FlowSpec {
		return &gmfnet.FlowSpec{
			Flow:     gmfnet.VoIP(fmt.Sprintf("call%02d", i), gmfnet.VoIPOptions{Deadline: 60 * gmfnet.Millisecond}),
			Route:    routes[i%len(routes)],
			Priority: 3,
		}
	})
	fmt.Println("admitted calls:", calls)
	for _, sporadic := range []bool{false, true} {
		n := admitUntilReject(100*gmfnet.Mbps, 48, func(i int) *gmfnet.FlowSpec {
			flow := gmfnet.MPEGIBBPBBPBB(fmt.Sprintf("vbr%02d", i), gmfnet.MPEGOptions{
				IPBytes: 24000, PBytes: 3000, BBytes: 800,
				Deadline: 250 * gmfnet.Millisecond,
			})
			if sporadic {
				flow = flow.Sporadic()
			}
			return &gmfnet.FlowSpec{Flow: flow, Route: routes[i%len(routes)], Priority: 1}
		})
		fmt.Printf("VBR video, sporadic=%v: %d flows\n", sporadic, n)
	}
	// Output:
	// call73 REJECTED
	// admitted calls: 73
	// vbr41 REJECTED
	// VBR video, sporadic=false: 41 flows
	// vbr12/sporadic REJECTED
	// VBR video, sporadic=true: 12 flows
}
