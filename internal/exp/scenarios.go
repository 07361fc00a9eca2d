package exp

import (
	"fmt"

	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

// paperMPEG returns the Figure 3 flow with the defaults documented in
// docs/ARCHITECTURE.md, F7.
func paperMPEG(name string) *network.FlowSpec {
	return &network.FlowSpec{
		Flow:     trace.MPEGIBBPBBPBB(name, trace.MPEGOptions{Deadline: 300 * units.Millisecond}),
		Route:    []network.NodeID{"0", "4", "6", "3"},
		Priority: 2,
	}
}

// figure1Scenario is the Figure 1/2 network with the MPEG flow of
// Figure 3 plus VoIP and CBR cross traffic, at the given link rate.
func figure1Scenario(rate units.BitRate) (*network.Network, error) {
	topo, err := network.Figure1(network.Figure1Options{Rate: rate})
	if err != nil {
		return nil, err
	}
	nw := network.New(topo)
	specs := []*network.FlowSpec{
		paperMPEG("mpeg"),
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
			return nil, err
		}
	}
	return nw, nil
}

// chainScenario builds a linear topology hA - s1 - … - sH - hB with a main
// flow end to end and one cross flow entering at each internal link, used
// by the scaling experiment.
func chainScenario(hops int, rate units.BitRate) (*network.Network, int, error) {
	if hops < 1 {
		return nil, 0, fmt.Errorf("exp: need at least one switch, got %d", hops)
	}
	topo := network.NewTopology()
	if err := topo.AddHost("hA"); err != nil {
		return nil, 0, err
	}
	if err := topo.AddHost("hB"); err != nil {
		return nil, 0, err
	}
	var spine []network.NodeID
	for i := 1; i <= hops; i++ {
		id := network.NodeID(fmt.Sprintf("s%d", i))
		if err := topo.AddSwitch(id, network.DefaultSwitchParams()); err != nil {
			return nil, 0, err
		}
		spine = append(spine, id)
	}
	links := [][2]network.NodeID{{"hA", spine[0]}, {spine[len(spine)-1], "hB"}}
	for i := 0; i+1 < len(spine); i++ {
		links = append(links, [2]network.NodeID{spine[i], spine[i+1]})
	}
	// One cross host per switch pair, injecting traffic over the internal
	// links.
	for i := 0; i+1 < len(spine); i++ {
		src := network.NodeID(fmt.Sprintf("c%d", i+1))
		dst := network.NodeID(fmt.Sprintf("d%d", i+2))
		if err := topo.AddHost(src); err != nil {
			return nil, 0, err
		}
		if err := topo.AddHost(dst); err != nil {
			return nil, 0, err
		}
		links = append(links, [2]network.NodeID{src, spine[i]}, [2]network.NodeID{spine[i+1], dst})
	}
	for _, l := range links {
		if err := topo.AddDuplexLink(l[0], l[1], rate, 0); err != nil {
			return nil, 0, err
		}
	}

	nw := network.New(topo)
	mainRoute := append([]network.NodeID{"hA"}, append(spine, "hB")...)
	mainIdx, err := nw.AddFlow(&network.FlowSpec{
		Flow:     trace.MPEGIBBPBBPBB("main", trace.MPEGOptions{Deadline: units.Second}),
		Route:    mainRoute,
		Priority: 2,
	})
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i+1 < len(spine); i++ {
		cross := &network.FlowSpec{
			Flow: trace.CBRVideo(fmt.Sprintf("cross%d", i+1), 4000, 40*units.Millisecond, units.Second),
			Route: []network.NodeID{
				network.NodeID(fmt.Sprintf("c%d", i+1)),
				spine[i], spine[i+1],
				network.NodeID(fmt.Sprintf("d%d", i+2)),
			},
			Priority: 3,
		}
		if _, err := nw.AddFlow(cross); err != nil {
			return nil, 0, err
		}
	}
	return nw, mainIdx, nil
}

// ratio formats a/b as a fixed-point percentage string.
func ratio(a, b units.Time) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}
