// Command gmfnet-load is the latency-SLO replay harness: it synthesizes
// (or loads) an open-loop request trace over a production-scale
// generated topology — ISP backbone, 5G fronthaul or multi-tenant Clos
// — and replays it through the closure-sharded ShardedController (the
// controller gmfnet-admitd runs), reporting end-to-end admission
// throughput and p50/p99/p999 decision latency from a fixed-footprint
// HDR-style histogram. Millions of requests run in constant memory:
// the controller folds decisions into counters (its default,
// admission.RetainCounters) instead of a log, and the histogram never
// allocates on the measurement path.
//
// Usage:
//
//	gmfnet-load -requests N [-topo backbone|fronthaul|clos|campus]
//	            [-switches K] [-fanout F] [-hosts H]
//	            [-seed S] [-hold T] [-local P] [-heavy P]
//	            [-diurnal A] [-flash F] [-tenants T] [-tenant-churn P]
//	            [-batch B] [-flush N]
//	            [-record FILE] [-json] [-name LABEL]
//	gmfnet-load -trace FILE [-batch B] [-flush N] [-json]
//
// Both modes accept -cpuprofile and -memprofile FILE to write pprof
// profiles of the replay.
//
// Replay decides the adds in -batch-sized RequestBatch calls, one after
// another on one goroutine (a batch's interference groups in order), and
// records each request's latency as its batch's call.
//
// The run is gated on the controller's own accounting: admitted +
// rejected must equal the requests submitted, and the resident
// population must equal admissions minus successful releases. A
// violation fails the run with a non-zero exit — this is the soak
// harness's correctness check, not just a load generator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/profiling"
	"gmfnet/internal/report"
	"gmfnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmfnet-load:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmfnet-load", flag.ContinueOnError)
	topoKind := fs.String("topo", "clos", "topology generator: backbone, fronthaul, clos or campus")
	switches := fs.Int("switches", 64, "PoPs (backbone), CU hubs (fronthaul), leaves (clos) or chain switches (campus)")
	fanout := fs.Int("fanout", 4, "aggs per PoP, cells per hub or spines; unused by campus")
	hosts := fs.Int("hosts", 8, "hosts per locality group")
	requests := fs.Int("requests", 100000, "admission requests to synthesize")
	seed := fs.Int64("seed", 1, "synthesizer RNG seed")
	hold := fs.Int("hold", 0, "mean flow lifetime in requests (0: synthesizer default)")
	local := fs.Float64("local", 0, "fraction of group-local requests (0: default 0.8)")
	heavy := fs.Float64("heavy", 0, "fraction of heavy video requests (0: default 0.1)")
	diurnal := fs.Float64("diurnal", 0, "diurnal load-swing amplitude in [0,1]")
	flash := fs.Int("flash", 0, "number of flash-crowd episodes")
	tenants := fs.Int("tenants", 0, "carve locality groups into this many tenants")
	tenantChurn := fs.Float64("tenant-churn", 0, "per-request probability of a whole-tenant departure")
	batch := fs.Int("batch", 64, "requests per RequestBatch call")
	flushEvery := fs.Int("flush", 4096, "flush departures and re-split shards every this many requests (0: only at end)")
	record := fs.String("record", "", "write the synthesized trace to this file before replaying")
	traceFile := fs.String("trace", "", "replay a recorded trace instead of synthesizing")
	jsonOut := fs.Bool("json", false, "emit one JSON metrics object instead of the table")
	name := fs.String("name", "", "label for the JSON metrics entry")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the replay to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be at least 1")
	}

	var (
		h   workload.Header
		ops []workload.Op
		err error
	)
	if *traceFile != "" {
		h, ops, err = workload.LoadTrace(*traceFile)
	} else {
		spec := workload.TopoSpec{Kind: *topoKind, Switches: *switches, Fanout: *fanout, Hosts: *hosts}
		h, ops, err = workload.Synthesize(spec, workload.Config{
			Seed: *seed, Requests: *requests, Hold: *hold, Local: *local,
			Heavy: *heavy, Diurnal: *diurnal, Flash: *flash,
			Tenants: *tenants, TenantChurn: *tenantChurn,
		})
	}
	if err != nil {
		return err
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		err = workload.WriteTrace(f, h, ops)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("recording trace: %w", err)
		}
	}

	prof, err := profiling.Start(*cpuprofile, *memprofile, "")
	if err != nil {
		return err
	}
	m, err := replay(h, ops, *batch, *flushEvery)
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	m.Name = *name

	// The SLO gate: every submitted request decided exactly once, and
	// the resident population consistent with the decision counters.
	if m.Admitted+m.Rejected != m.Requests {
		return fmt.Errorf("accounting: admitted %d + rejected %d != %d requests submitted",
			m.Admitted, m.Rejected, m.Requests)
	}
	if m.Resident != m.Admitted-m.Released {
		return fmt.Errorf("accounting: %d residents != admitted %d - released %d",
			m.Resident, m.Admitted, m.Released)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		return enc.Encode(m)
	}
	return m.render(stdout, h)
}

// metrics is the replay outcome; the JSON field names are the contract
// with the CI bench archive (BENCH_admission.json).
type metrics struct {
	Name          string  `json:"name,omitempty"`
	CPU           int     `json:"cpu"`
	Requests      int     `json:"requests"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50NS         int64   `json:"p50_ns"`
	P99NS         int64   `json:"p99_ns"`
	P999NS        int64   `json:"p999_ns"`
	MaxNS         int64   `json:"max_ns"`
	MeanNS        int64   `json:"mean_ns"`
	Admitted      int     `json:"admitted"`
	Rejected      int     `json:"rejected"`
	Released      int     `json:"released"`
	Resident      int     `json:"resident"`
	Closures      int     `json:"closures"`
	ElapsedMS     int64   `json:"elapsed_ms"`
}

func (m *metrics) render(w io.Writer, h workload.Header) error {
	kind := h.Topo.Kind
	if kind == "" {
		kind = "campus"
	}
	t := report.NewTable("Load replay (sharded controller)", "metric", "value")
	t.AddRowf("topology", fmt.Sprintf("%s %dx%dx%d", kind, h.Topo.Switches, h.Topo.Fanout, h.Topo.Hosts))
	t.AddRowf("cpus", m.CPU)
	t.AddRowf("requests", m.Requests)
	t.AddRowf("admitted", m.Admitted)
	t.AddRowf("rejected", m.Rejected)
	t.AddRowf("departures", m.Released)
	t.AddRowf("resident flows", m.Resident)
	t.AddRowf("closures", m.Closures)
	t.AddRowf("elapsed", (time.Duration(m.ElapsedMS) * time.Millisecond).String())
	t.AddRowf("requests/s", fmt.Sprintf("%.0f", m.ThroughputRPS))
	t.AddRowf("p50 latency", time.Duration(m.P50NS).String())
	t.AddRowf("p99 latency", time.Duration(m.P99NS).String())
	t.AddRowf("p999 latency", time.Duration(m.P999NS).String())
	t.AddRowf("max latency", time.Duration(m.MaxNS).String())
	return t.Render(w)
}

// replay drives the operation stream through a ShardedController with
// counters-only retention: adds are decided in batchSize-long
// RequestBatch calls, departures release by name once the pending batch
// is decided (a departure of a rejected flow is a deterministic miss).
// Each batch's call time is recorded once per request in it.
//
// Every flushEvery requests the controller applies its queued
// departures and re-splits shards whose flows no longer form one
// interference closure. Without that maintenance a long replay only
// ever fuses: transient cross-traffic welds closures together
// permanently and per-decision cost creeps up with shard size.
func replay(h workload.Header, ops []workload.Op, batchSize, flushEvery int) (*metrics, error) {
	topo, _, err := h.Topo.Build()
	if err != nil {
		return nil, err
	}
	ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		return nil, err
	}
	var hist workload.Histogram
	// The archive keys rows by the cores the replay actually had (-cpu
	// N test variants and CI runners differ).
	m := &metrics{CPU: runtime.GOMAXPROCS(0)}
	start := time.Now()
	pending := make([]*network.FlowSpec, 0, batchSize)
	submit := func() error {
		if len(pending) == 0 {
			return nil
		}
		s := time.Now()
		if _, err := ctl.RequestBatch(pending); err != nil {
			return err
		}
		lat := time.Since(s)
		for range pending {
			hist.Record(lat)
		}
		pending = pending[:0]
		return nil
	}
	for i := range ops {
		op := &ops[i]
		switch op.Op {
		case "add":
			fs, err := op.Spec(topo)
			if err != nil {
				return nil, err
			}
			m.Requests++
			pending = append(pending, fs)
			if len(pending) >= batchSize {
				if err := submit(); err != nil {
					return nil, err
				}
			}
			if flushEvery > 0 && m.Requests%flushEvery == 0 {
				if err := ctl.Flush(); err != nil {
					return nil, err
				}
				if _, err := ctl.Sharded().Resplit(); err != nil {
					return nil, err
				}
			}
		case "del":
			// Decide the partial batch first: the departing flow may be
			// in it.
			if err := submit(); err != nil {
				return nil, err
			}
			ok, err := ctl.Release(op.Name)
			if err != nil {
				return nil, err
			}
			if ok {
				m.Released++
			}
		}
	}
	if err := submit(); err != nil {
		return nil, err
	}
	// Close applies the last departures and re-splits inside the timed
	// region: they are part of the replay's work.
	if err := ctl.Close(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	m.ThroughputRPS = float64(m.Requests) / elapsed.Seconds()
	m.ElapsedMS = elapsed.Milliseconds()
	m.P50NS = int64(hist.Quantile(0.50))
	m.P99NS = int64(hist.Quantile(0.99))
	m.P999NS = int64(hist.Quantile(0.999))
	m.MaxNS = int64(hist.Max())
	m.MeanNS = int64(hist.Mean())
	m.Admitted = ctl.Admitted()
	m.Rejected = ctl.Rejected()
	m.Resident = ctl.NumResidents()
	m.Closures = ctl.NumShards()
	return m, nil
}
