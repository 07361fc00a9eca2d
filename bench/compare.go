package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func loadReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r report
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives; 0 for fewer than two values.
func quartileSpread(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / med
}

// compareFiles prints, per end-to-end metric and workload, the median
// of each side's runs, how much worse B is than A, the wider of the two
// sides' quartile spreads, and the bound; it also requires the exact
// per-layer counts of traced runs to be equal for equal (workload,
// seed). It returns an error on a breach, and when a spread exceeds the
// bound (the comparison is then unresolved, not passed).
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	values := func(reports []*report, workload, metric string) []float64 {
		var out []float64
		for _, r := range reports {
			if s, ok := r.EndToEnd[metric]; ok && r.Workload == workload && !r.Traced && r.Correct {
				out = append(out, s.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tspread\tbound\tverdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.2f\tmissing\n", wl.Name, m.Name, m.Bound)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad++
			// setup_s is held to its bound on the medians only.
			case spread > m.Bound && m.Name != "setup_s":
				verdict = "unresolved"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, mb, m.Unit, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Exact per-layer counts: equal for equal (workload, seed).
	type key struct {
		workload string
		seed     int64
	}
	tracedA := make(map[key]*report)
	for _, r := range a {
		if r.Traced {
			tracedA[key{r.Workload, r.Seed}] = r
		}
	}
	for _, rb := range b {
		ra := tracedA[key{rb.Workload, rb.Seed}]
		if !rb.Traced || ra == nil {
			continue
		}
		for _, name := range exactLayerMetrics {
			if ra.PerLayer[name] != rb.PerLayer[name] {
				fmt.Fprintf(w, "%s seed %d: exact count %s differs: %v vs %v\n",
					rb.Workload, rb.Seed, name, ra.PerLayer[name].Value, rb.PerLayer[name].Value)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparison(s) breached, unresolved or missing", bad)
	}
	return nil
}
