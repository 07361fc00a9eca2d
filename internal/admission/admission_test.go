package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/trace"
	"gmfnet/internal/units"
)

const ms = units.Millisecond

func newController(t *testing.T) *ShardedController {
	t.Helper()
	topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
	c, err := NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetention(RetainAll) // the tests read the decision log
	return c
}

func voipSpec(name string, src network.NodeID) *network.FlowSpec {
	return &network.FlowSpec{
		Flow:     trace.VoIP(name, trace.VoIPOptions{Deadline: 100 * ms}),
		Route:    []network.NodeID{src, "4", "6", "3"},
		Priority: 1,
	}
}

func TestNewControllerErrors(t *testing.T) {
	if _, err := NewShardedController(nil, core.Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewColdController(nil, core.Config{}); err == nil {
		t.Fatal("nil network accepted by the cold controller")
	}
}

func TestAdmitFeasibleFlow(t *testing.T) {
	c := newController(t)
	d, err := c.Request(voipSpec("v1", "0"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatalf("feasible flow rejected: %+v", d.Analysis())
	}
	if c.NumFlows() != 1 {
		t.Fatalf("network has %d flows, want 1", c.NumFlows())
	}
	if c.Admitted() != 1 || c.Rejected() != 0 {
		t.Fatalf("counters: %d/%d", c.Admitted(), c.Rejected())
	}
}

func TestRejectInfeasibleFlowAndRollBack(t *testing.T) {
	c := newController(t)
	// A flow that saturates the 10 Mbit/s first hop on its own.
	hog := &network.FlowSpec{
		Flow:     trace.CBRVideo("hog", 150000, 100*ms, 100*ms), // 12 Mbit/s
		Route:    []network.NodeID{"0", "4", "6", "3"},
		Priority: 2,
	}
	d, err := c.Request(hog)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatal("overloading flow admitted")
	}
	if c.NumFlows() != 0 {
		t.Fatal("rejected flow not rolled back")
	}
	// The network keeps working for later feasible requests.
	d, err = c.Request(voipSpec("v1", "0"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatal("feasible flow rejected after rollback")
	}
}

func TestExistingFlowsProtected(t *testing.T) {
	c := newController(t)
	// Fill the network with video until a request is refused; admitted
	// flows must all stay schedulable throughout.
	admitted := 0
	for i := 0; ; i++ {
		spec := &network.FlowSpec{
			Flow:     trace.CBRVideo(name(i), 15000, 50*ms, 200*ms), // 2.4 Mbit/s
			Route:    []network.NodeID{"0", "4", "6", "3"},
			Priority: 1,
		}
		d, err := c.Request(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted {
			break
		}
		admitted++
		if admitted > 20 {
			t.Fatal("admission never saturates")
		}
	}
	if admitted == 0 {
		t.Fatal("no flow admitted at all")
	}
	// The admitted set must be schedulable under a cold analysis.
	if !coldAnalysis(t, residentNetwork(t, c)).Schedulable() {
		t.Fatal("admitted set is not schedulable")
	}
	if c.Admitted() != admitted || c.Rejected() != 1 {
		t.Fatalf("counters: %d/%d, want %d/1", c.Admitted(), c.Rejected(), admitted)
	}
	if len(c.Decisions()) != admitted+1 {
		t.Fatalf("decisions = %d", len(c.Decisions()))
	}
}

func TestMalformedRequestReturnsError(t *testing.T) {
	c := newController(t)
	bad := &network.FlowSpec{
		Flow:  trace.VoIP("bad", trace.VoIPOptions{}),
		Route: []network.NodeID{"0", "5", "3"}, // no such link
	}
	if _, err := c.Request(bad); err == nil {
		t.Fatal("malformed request accepted")
	}
	if c.NumFlows() != 0 {
		t.Fatal("malformed request left residue")
	}
	if len(c.Decisions()) != 0 {
		t.Fatal("malformed request recorded a decision")
	}
}

func name(i int) string {
	return "cbr" + string(rune('a'+i))
}

func TestRequestAllAndRelease(t *testing.T) {
	c := newController(t)
	specs := []*network.FlowSpec{
		voipSpec("v1", "0"),
		voipSpec("v2", "1"),
		voipSpec("v3", "2"),
	}
	specs[2].Route = []network.NodeID{"2", "5", "6", "3"}
	ds, err := c.RequestAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || c.Admitted() != 3 {
		t.Fatalf("batch admitted %d of %d", c.Admitted(), len(ds))
	}
	ok, err := c.Release("v2")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || c.NumFlows() != 2 || c.Released() != 1 {
		t.Fatalf("release: ok=%v flows=%d released=%d", ok, c.NumFlows(), c.Released())
	}
	if ok, _ := c.Release("ghost"); ok {
		t.Fatal("released a flow that does not exist")
	}
	// Departure must leave the controller consistent for new requests.
	d, err := c.Request(voipSpec("v4", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatal("request after release rejected")
	}
}

// TestIncrementalMatchesColdController drives the incremental controller
// and the from-scratch baseline through identical randomized request/
// departure sequences; every decision, the admitted flow sets and the
// published bounds must agree exactly.
func TestIncrementalMatchesColdController(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			topo := network.MustFigure1(network.Figure1Options{Rate: 10 * units.Mbps})
			inc, err := NewShardedController(network.New(topo), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewColdController(network.New(topo), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			hosts := []network.NodeID{"0", "1", "2"}
			routesTo3 := map[network.NodeID][]network.NodeID{
				"0": {"0", "4", "6", "3"},
				"1": {"1", "4", "6", "3"},
				"2": {"2", "5", "6", "3"},
			}
			var admittedNames []string
			for op := 0; op < 25; op++ {
				if len(admittedNames) > 0 && r.Float64() < 0.25 {
					victim := admittedNames[r.Intn(len(admittedNames))]
					okInc, err := inc.Release(victim)
					if err != nil {
						t.Fatal(err)
					}
					okCold, err := cold.Release(victim)
					if err != nil {
						t.Fatal(err)
					}
					if okInc != okCold {
						t.Fatalf("op %d: release %q diverged: %v vs %v", op, victim, okInc, okCold)
					}
					for i, n := range admittedNames {
						if n == victim {
							admittedNames = append(admittedNames[:i], admittedNames[i+1:]...)
							break
						}
					}
				} else {
					src := hosts[r.Intn(len(hosts))]
					mk := func(nm string) *network.FlowSpec {
						switch r.Intn(3) {
						case 0:
							return &network.FlowSpec{
								Flow:     trace.VoIP(nm, trace.VoIPOptions{Deadline: 100 * ms}),
								Route:    routesTo3[src],
								Priority: network.Priority(1 + r.Intn(3)),
							}
						case 1:
							return &network.FlowSpec{
								Flow:     trace.CBRVideo(nm, 4000+r.Int63n(12000), 40*ms, 250*ms),
								Route:    routesTo3[src],
								Priority: network.Priority(r.Intn(3)),
							}
						default:
							return &network.FlowSpec{
								Flow:     trace.MPEGIBBPBBPBB(nm, trace.MPEGOptions{Deadline: 300 * ms}),
								Route:    routesTo3[src],
								Priority: network.Priority(r.Intn(2)),
							}
						}
					}
					nm := fmt.Sprintf("f%d", op)
					// Draw once; hand equal specs to both controllers.
					spec := mk(nm)
					specCopy := *spec
					dInc, err := inc.Request(spec)
					if err != nil {
						t.Fatal(err)
					}
					dCold, err := cold.Request(&specCopy)
					if err != nil {
						t.Fatal(err)
					}
					if dInc.Admitted != dCold.Admitted {
						t.Fatalf("op %d (%s): decisions diverged: incremental=%v cold=%v",
							op, nm, dInc.Admitted, dCold.Admitted)
					}
					if dInc.Admitted {
						admittedNames = append(admittedNames, nm)
					}
				}
				// The two admitted flow sets must match exactly.
				if inc.NumFlows() != cold.NumFlows() {
					t.Fatalf("op %d: flow counts diverged: %d vs %d", op, inc.NumFlows(), cold.NumFlows())
				}
			}
			// Published bounds of the final admitted set must be identical
			// to a cold analysis, flow for flow.
			checkShardedBounds(t, inc, coldAnalysis(t, cold.Network()))
		})
	}
}

// coldAnalysis runs the from-scratch referee analysis over nw.
func coldAnalysis(t *testing.T, nw *network.Network) *core.Result {
	t.Helper()
	an, err := core.NewAnalyzer(nw, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// residentNetwork gathers the controller's residents, shard by shard,
// into one network over the shared topology; at least one shard must
// exist.
func residentNetwork(t *testing.T, c *ShardedController) *network.Network {
	t.Helper()
	shards := c.Sharded().Shards()
	nw := network.New(shards[0].Network().Topo)
	for _, eng := range shards {
		for _, fs := range eng.Network().Flows() {
			if _, err := nw.AddFlow(fs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nw
}
