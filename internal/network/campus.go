package network

import (
	"fmt"

	"gmfnet/internal/units"
)

// Campus builds the standard multi-switch workload topology used by the
// admission benchmarks and campus request traces: `switches`
// software switches (default Click parameters) chained over a 1 Gbit/s
// backbone, each serving `hostsPer` hosts on 100 Mbit/s edge links.
// Switch s is named "sw<s>" and its hosts "h<s>_<h>"; the returned host
// list is in switch-major order, so hosts[s*hostsPer:(s+1)*hostsPer] are
// the hosts under switch s.
func Campus(switches, hostsPer int) (*Topology, []NodeID, error) {
	if switches < 1 || hostsPer < 1 {
		return nil, nil, fmt.Errorf("network: campus needs at least 1 switch and 1 host per switch")
	}
	topo := NewTopology()
	for s := 0; s < switches; s++ {
		id := NodeID(fmt.Sprintf("sw%d", s))
		if err := topo.AddSwitch(id, DefaultSwitchParams()); err != nil {
			return nil, nil, err
		}
		if s > 0 {
			prev := NodeID(fmt.Sprintf("sw%d", s-1))
			if err := topo.AddDuplexLink(prev, id, units.Gbps, 5*units.Microsecond); err != nil {
				return nil, nil, err
			}
		}
	}
	hosts := make([]NodeID, 0, switches*hostsPer)
	for s := 0; s < switches; s++ {
		sw := NodeID(fmt.Sprintf("sw%d", s))
		for h := 0; h < hostsPer; h++ {
			id := NodeID(fmt.Sprintf("h%d_%d", s, h))
			if err := topo.AddHost(id); err != nil {
				return nil, nil, err
			}
			if err := topo.AddDuplexLink(id, sw, 100*units.Mbps, units.Microsecond); err != nil {
				return nil, nil, err
			}
			hosts = append(hosts, id)
		}
	}
	return topo, hosts, nil
}
