package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gmfnet/internal/admission"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

var updateWhy = flag.Bool("update-why", false, "rewrite testdata/*.why.golden from the current controller")

// explain writes one line for a rejected decision: the first flow of the
// decision's analysis, in analysed order, that is not schedulable, and
// either its stage error or its first frame over the deadline with that
// frame's per-stage responses. Times are raw picoseconds, so a one-unit
// drift in any bound shows.
func explain(w io.Writer, d admission.Decision) {
	fmt.Fprintf(w, "reject %s:", d.FlowName)
	res := d.Analysis()
	if res == nil {
		fmt.Fprintln(w, " no analysis")
		return
	}
	for i := range res.Flows {
		fr := &res.Flows[i]
		if fr.Schedulable() {
			continue
		}
		if fr.Err != nil {
			fmt.Fprintf(w, " flow %s err %v\n", fr.Name, fr.Err)
			return
		}
		for k := range fr.Frames {
			fm := &fr.Frames[k]
			if fm.Meets() {
				continue
			}
			fmt.Fprintf(w, " flow %s frame %d bound %d deadline %d stages", fr.Name, k, int64(fm.Response), int64(fm.Deadline))
			for _, st := range fm.Stages {
				fmt.Fprintf(w, " %d", int64(st.Response))
			}
			fmt.Fprintln(w)
			return
		}
	}
	fmt.Fprintf(w, " every flow meets its deadline (converged=%v)\n", res.Converged)
}

// replayWhy replays ops through a sharded controller that retains every
// decision, one by one or in batches of batch, and writes an explanation
// line per rejection. With flushEnd false a batch still pending at the
// end is left undecided, so a prefix of the ops yields a prefix of the
// full replay's lines.
func replayWhy(w io.Writer, topo *network.Topology, ops []workload.Op, batch int, flushEnd bool) error {
	ctl, err := admission.NewShardedController(network.New(topo), core.Config{})
	if err != nil {
		return err
	}
	var pending []*network.FlowSpec
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		ds, err := ctl.RequestBatch(pending)
		if err != nil {
			return err
		}
		for _, d := range ds {
			if !d.Admitted {
				explain(w, d)
			}
		}
		pending = pending[:0]
		return nil
	}
	for _, op := range ops {
		switch op.Op {
		case "add":
			spec, err := op.Spec(topo)
			if err != nil {
				return err
			}
			if batch <= 0 {
				d, err := ctl.Request(spec)
				if err != nil {
					return err
				}
				if !d.Admitted {
					explain(w, d)
				}
				continue
			}
			if pending = append(pending, spec); len(pending) >= batch {
				if err := flush(); err != nil {
					return err
				}
			}
		case "del":
			if err := flush(); err != nil {
				return err
			}
			if _, err := ctl.Release(op.Name); err != nil {
				return err
			}
		}
	}
	if flushEnd {
		return flush()
	}
	return nil
}

// TestRejectionExplanationGolden pins, for every rejection in the
// generator traces, which flow and frame the decision's analysis names
// as the violator, with its bound, deadline and per-stage responses.
// The goldens were recorded from analyses the engine retained at
// decision time; the decisions' on-demand analyses must reproduce them
// byte for byte. Under -short only a prefix of each trace is replayed,
// and its lines must be a prefix of the golden.
func TestRejectionExplanationGolden(t *testing.T) {
	legs := []struct {
		gen   string
		batch int
	}{
		{gen: "backbone"},
		{gen: "clos"},
		{gen: "clos", batch: 16},
		{gen: "fronthaul"},
	}
	for _, leg := range legs {
		name, file := leg.gen, leg.gen+".why.golden"
		if leg.batch > 0 {
			name = fmt.Sprintf("%s-batch%d", leg.gen, leg.batch)
			file = fmt.Sprintf("%s-batch%d.why.golden", leg.gen, leg.batch)
		}
		t.Run(name, func(t *testing.T) {
			h, ops, err := workload.LoadTrace(filepath.Join("testdata", leg.gen+".trace"))
			if err != nil {
				t.Fatal(err)
			}
			topo, _, err := h.Topo.Build()
			if err != nil {
				t.Fatal(err)
			}
			full := !testing.Short() || *updateWhy
			if !full {
				ops = ops[:len(ops)/2]
			}
			var out bytes.Buffer
			if err := replayWhy(&out, topo, ops, leg.batch, full); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", file)
			if *updateWhy {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(golden, []byte(" bound ")) {
				t.Fatalf("%s pins no deadline miss", file)
			}
			got := out.Bytes()
			if full && !bytes.Equal(got, golden) || !full && !bytes.HasPrefix(golden, got) {
				t.Fatalf("explanations differ from %s:\n--- got ---\n%s\n--- want ---\n%s", file, got, golden)
			}
		})
	}
}
