// Command gmfnet-experiments regenerates the experiment tables E1-E13
// indexed by exp.All in internal/exp.
//
// Usage:
//
//	gmfnet-experiments           # run all experiments
//	gmfnet-experiments -run E5   # run one experiment
//	gmfnet-experiments -csv      # emit CSV instead of aligned tables
package main

import (
	"flag"
	"fmt"
	"os"

	"gmfnet/internal/exp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gmfnet-experiments:", err)
		os.Exit(1)
	}
}

// runUsage is the -run flag's help text; it names the id range of
// exp.All, so it cannot fall behind the experiment list.
func runUsage() string {
	all := exp.All()
	return fmt.Sprintf("run a single experiment by id (%s..%s)", all[0].ID, all[len(all)-1].ID)
}

func run(args []string) error {
	fs := flag.NewFlagSet("gmfnet-experiments", flag.ContinueOnError)
	only := fs.String("run", "", runUsage())
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	experiments := exp.All()
	if *only != "" {
		e, err := exp.ByID(*only)
		if err != nil {
			return err
		}
		experiments = []exp.Experiment{e}
	}

	for _, e := range experiments {
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		tables, err := e.Run()
		for _, t := range tables {
			if *csv {
				if err := t.RenderCSV(os.Stdout); err != nil {
					return err
				}
			} else if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
