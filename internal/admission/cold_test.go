package admission

import (
	"testing"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// backboneResidents replays a synthesized backbone 32×32×2 trace (hold
// 2 400, all traffic group-local, 2 % heavy video) through a sharded
// controller and returns a network holding its residents in admission
// order: ~2 200 flows in small closures, the shape of the
// backbone-steady benchmark workload.
func backboneResidents(tb testing.TB) *network.Network {
	tb.Helper()
	spec := workload.TopoSpec{Kind: "backbone", Switches: 32, Fanout: 32, Hosts: 2}
	_, ops, err := workload.Synthesize(spec, workload.Config{Seed: 1, Requests: 6000, Hold: 2400, Local: 1, Heavy: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	topo, _, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	ctl, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ctl.SetRetention(RetainCounters)
	for _, op := range ops {
		switch op.Op {
		case "add":
			fs, err := op.Spec(topo)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := ctl.Request(fs); err != nil {
				tb.Fatal(err)
			}
		case "del":
			ctl.Release(op.Name)
		}
	}
	nw := network.New(topo)
	for _, fs := range ctl.Residents().Flows() {
		if _, err := nw.AddFlow(fs); err != nil {
			tb.Fatal(err)
		}
	}
	return nw
}

// BenchmarkColdAnalyzeBackbone times one cold Analyzer.Analyze — the
// referee's from-scratch holistic analysis — over a ~2 200-flow
// backbone resident set; bytes/op is what the cold jitter state costs.
func BenchmarkColdAnalyzeBackbone(b *testing.B) {
	nw := backboneResidents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := core.NewAnalyzer(nw, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := an.Analyze()
		if err != nil || !res.Schedulable() {
			b.Fatalf("cold analysis: err %v", err)
		}
	}
	b.ReportMetric(float64(nw.NumFlows()), "flows")
}
