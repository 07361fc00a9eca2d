// Command gmfnet-analyze runs the paper's holistic schedulability analysis
// on a JSON scenario file and prints per-flow response-time bounds.
//
// Usage:
//
//	gmfnet-analyze [-mode sound|paper] [-stages] [-example] [scenario.json]
//
// With -example the built-in Figure 1 scenario is analysed (and can be
// dumped with -dump to serve as a template).
package main

import (
	"flag"
	"fmt"
	"os"

	"gmfnet/internal/config"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gmfnet-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gmfnet-analyze", flag.ContinueOnError)
	mode := fs.String("mode", "sound", "analysis mode: sound or paper (DESIGN.md F3-F5)")
	stages := fs.Bool("stages", false, "print the per-stage decomposition of every frame")
	util := fs.Bool("util", false, "print the per-resource utilisation (bottleneck) report")
	example := fs.Bool("example", false, "analyse the built-in Figure 1 scenario")
	dump := fs.Bool("dump", false, "print the built-in Figure 1 scenario as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dump {
		return config.Figure1Scenario().Write(os.Stdout)
	}

	var scenario *config.Scenario
	switch {
	case *example:
		scenario = config.Figure1Scenario()
	case fs.NArg() == 1:
		var err error
		scenario, err = config.Load(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need a scenario file or -example (see -h)")
	}

	nw, err := scenario.Build()
	if err != nil {
		return err
	}
	cfg := core.Config{}
	switch *mode {
	case "sound":
		cfg.Mode = core.ModeSound
	case "paper":
		cfg.Mode = core.ModePaper
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	if *util {
		loads, err := core.UtilizationReport(nw)
		if err != nil {
			return err
		}
		t := report.NewTable("Per-resource utilisation (descending)", "resource", "utilisation", "flows")
		for _, l := range loads {
			t.AddRowf(l.Resource, fmt.Sprintf("%.4f", l.Utilization), len(l.Flows))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	an, err := core.NewAnalyzer(nw, cfg)
	if err != nil {
		return err
	}
	res, err := an.Analyze()
	if err != nil {
		return err
	}

	summary := report.NewTable(
		fmt.Sprintf("Holistic analysis (%s mode): schedulable=%v, iterations=%d, converged=%v",
			cfg.Mode, res.Schedulable(), res.Iterations, res.Converged),
		"flow", "frame", "bound", "deadline", "meets")
	for i := range res.Flows {
		fr := res.Flow(i)
		if fr.Err != nil {
			summary.AddRowf(fr.Name, "-", "error: "+fr.Err.Error(), "-", false)
			continue
		}
		for k := range fr.Frames {
			summary.AddRowf(fr.Name, k, fr.Frames[k].Response, fr.Frames[k].Deadline, fr.Frames[k].Meets())
		}
	}
	if err := summary.Render(os.Stdout); err != nil {
		return err
	}

	if *stages {
		for i := range res.Flows {
			fr := res.Flow(i)
			if fr.Err != nil {
				continue
			}
			for k := range fr.Frames {
				t := report.NewTable(
					fmt.Sprintf("\nStages of flow %q frame %d (route %v)", fr.Name, k, routeOf(nw, i)),
					"stage", "entry jitter", "bound")
				for _, st := range fr.Frames[k].Stages {
					t.AddRowf(st.Resource, st.EntryJitter, st.Response)
				}
				if err := t.Render(os.Stdout); err != nil {
					return err
				}
			}
		}
	}
	if !res.Schedulable() {
		return fmt.Errorf("scenario is NOT schedulable")
	}
	return nil
}

func routeOf(nw *network.Network, i int) []network.NodeID {
	return nw.Flow(i).Route
}
