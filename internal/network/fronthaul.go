package network

import (
	"fmt"

	"gmfnet/internal/units"
)

// Fronthaul builds a 5G-fronthaul topology: `hubs` central-unit
// switches ("cu<h>") chained over a 10 Gbit/s backhaul, each serving
// `cellsPer` distributed-unit switches ("du<h>_<c>") on 1 Gbit/s
// midhaul links, each cell terminating `ruPer` radio-unit hosts
// ("ru<h>_<c>_<r>") on 100 Mbit/s fronthaul drops. The returned host
// list is cell-major: hosts[g*ruPer:(g+1)*ruPer] are the radio units
// of cell g = h*cellsPer+c, the locality-group layout the workload
// synthesizer keys on.
//
// Closure behaviour mirrors Backbone one level down: cell-local
// traffic (RU to RU under one DU) forms many fine closures per cell,
// while flows that climb to the CU or cross hubs chain closures along
// the midhaul and backhaul — churn-heavy traces fuse and re-split
// closures constantly, which is exactly the stress the sharded
// admission controller needs.
func Fronthaul(hubs, cellsPer, ruPer int) (*Topology, []NodeID, error) {
	if hubs < 1 || cellsPer < 1 || ruPer < 1 {
		return nil, nil, fmt.Errorf("network: fronthaul needs at least 1 hub, 1 cell per hub and 1 radio unit per cell")
	}
	topo := NewTopology()
	for h := 0; h < hubs; h++ {
		id := NodeID(fmt.Sprintf("cu%d", h))
		if err := topo.AddSwitch(id, DefaultSwitchParams()); err != nil {
			return nil, nil, err
		}
		if h > 0 {
			prev := NodeID(fmt.Sprintf("cu%d", h-1))
			if err := topo.AddDuplexLink(prev, id, 10*units.Gbps, 5*units.Microsecond); err != nil {
				return nil, nil, err
			}
		}
	}
	hosts := make([]NodeID, 0, hubs*cellsPer*ruPer)
	for h := 0; h < hubs; h++ {
		cu := NodeID(fmt.Sprintf("cu%d", h))
		for c := 0; c < cellsPer; c++ {
			du := NodeID(fmt.Sprintf("du%d_%d", h, c))
			if err := topo.AddSwitch(du, DefaultSwitchParams()); err != nil {
				return nil, nil, err
			}
			if err := topo.AddDuplexLink(du, cu, units.Gbps, 5*units.Microsecond); err != nil {
				return nil, nil, err
			}
			for r := 0; r < ruPer; r++ {
				id := NodeID(fmt.Sprintf("ru%d_%d_%d", h, c, r))
				if err := topo.AddHost(id); err != nil {
					return nil, nil, err
				}
				if err := topo.AddDuplexLink(id, du, 100*units.Mbps, units.Microsecond); err != nil {
					return nil, nil, err
				}
				hosts = append(hosts, id)
			}
		}
	}
	return topo, hosts, nil
}
