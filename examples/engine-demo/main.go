// Command engine-demo drives the public admission API: admit a batch,
// watch a departure re-converge, and confirm bounds match a cold
// analysis.
package main

import (
	"fmt"

	"gmfnet"
)

func main() {
	topo := gmfnet.MustFigure1(gmfnet.Figure1Options{Rate: 100 * gmfnet.Mbps})
	ctl, err := gmfnet.NewSystem(topo).NewAdmissionController(gmfnet.AnalysisConfig{})
	if err != nil {
		panic(err)
	}
	var specs []*gmfnet.FlowSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, &gmfnet.FlowSpec{
			Flow:     gmfnet.VoIP(fmt.Sprintf("call%d", i), gmfnet.VoIPOptions{Deadline: 100 * gmfnet.Millisecond}),
			Route:    []gmfnet.NodeID{"0", "4", "6", "3"},
			Priority: 2,
		})
	}
	ds, err := ctl.RequestAll(specs)
	if err != nil {
		panic(err)
	}
	for _, d := range ds {
		fmt.Printf("%s admitted=%v\n", d.FlowName, d.Admitted)
	}
	if ok, err := ctl.Release("call1"); err != nil || !ok {
		panic(fmt.Sprintf("release: ok=%v err=%v", ok, err))
	}
	// The calls share one route, so they form one interference closure:
	// one shard engine holds them all. Sharded applies the departure.
	shards := ctl.Sharded().Shards()
	if len(shards) != 1 {
		panic(fmt.Sprintf("%d shards, want 1", len(shards)))
	}
	res, err := shards[0].Analyze()
	if err != nil {
		panic(err)
	}
	// The cold referee analyses the controller's residents from scratch.
	ref := gmfnet.NewSystem(topo)
	for _, fs := range ctl.Residents().Flows() {
		ref.MustAddFlow(fs)
	}
	cold, err := ref.Analyze(gmfnet.AnalysisConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("after departure: %d flows, schedulable=%v, bound[0]=%v (cold %v)\n",
		len(res.Flows), res.Schedulable(), res.Flow(0).MaxResponse(), cold.Flow(0).MaxResponse())
}
