// Command gmfnet-bench is the repository's benchmark: it measures
// gmfnet-admitd on the path a user takes — socket in, verdict out — and
// attributes what it finds to layers.
//
// It builds ./cmd/gmfnet-admitd, spawns it as a child process, and
// drives it as an external client of wire protocol v1 over one
// unix-socket connection with ops from workload.Synthesize. Every run
// carries its own referee: the daemon's verdicts must equal an
// in-process replay of the same ops, and a prefix of those must equal
// the cold reference controller's.
//
// Usage (from the repository root):
//
//	go run ./bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]
//	go run ./bench -compare A.json B.json
//
// The last line of standard output is one JSON object per workload run:
// correct, attempted, failed, and the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1). bench/README.md defines the
// workloads and metrics; BENCHMARK.json fixes the regression bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmfnet-bench:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gmfnet-bench: "+format+"\n", args...)
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmfnet-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, one result line each)")
	seed := fs.Int64("seed", 1, "workload synthesizer seed")
	seconds := fs.Float64("seconds", 26, "time to spend in repetitions (at least three are always made, one when tracing)")
	traced := fs.Int("trace", 0, "1: trace the in-process replay and print the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the span set to this file (JSON lines)")
	out := fs.String("out", "", "append each run's full report (JSON line) to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two report files: -compare A.json B.json")
	spec := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q (see -h)", fs.Arg(0))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	todo := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workloadDef{wl}
	}

	dir, bin, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	failed := false
	for _, wl := range todo {
		r, err := runWorkload(ctx, bin, dir, wl, *seed, *seconds, *traced == 1, *spans)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		r.print(os.Stderr)
		if *out != "" {
			if err := appendReport(*out, r); err != nil {
				return err
			}
		}
		line, err := json.Marshal(r.resultLine())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		failed = failed || !r.Correct
	}
	if failed {
		return fmt.Errorf("the referee found failures (see the breaches above)")
	}
	return nil
}

func appendReport(path string, r *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo says where a report's numbers were taken, so that no row is
// ambiguous about its host.
type hostInfo struct {
	NProc               int    `json:"nproc"`
	DaemonGOMAXPROCS    string `json:"daemon_gomaxprocs"`
	GeneratorGOMAXPROCS int    `json:"generator_gomaxprocs"`
	GoVersion           string `json:"go_version"`
	Kernel              string `json:"kernel"`
	Commit              string `json:"commit"`
}

// host describes this machine and checkout; it is the same for every
// run of an invocation.
var host = sync.OnceValue(func() hostInfo {
	h := hostInfo{
		NProc:               runtime.NumCPU(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:           runtime.Version(),
		Kernel:              "unknown",
		Commit:              "unknown",
	}
	// The child inherits the environment and is given no -workers flag,
	// so its GOMAXPROCS is the variable if set, else the runtime default.
	h.DaemonGOMAXPROCS = os.Getenv("GOMAXPROCS")
	if h.DaemonGOMAXPROCS == "" {
		h.DaemonGOMAXPROCS = fmt.Sprintf("default (%d)", h.NProc)
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// Look for a repository in the working directory only: a checkout
	// that is not one must not pick up a parent's commit.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if b, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
	}
	return h
})

// print writes the human-readable form of a report.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %d repetition(s)  %.1f s (%.1f s in-process)  commit %s  nproc %d  %s  kernel %s\n",
		r.Workload, r.Seed, r.Repetitions, r.WallS, r.PrepassS, r.Host.Commit, r.Host.NProc, r.Host.GoVersion, r.Host.Kernel)
	fmt.Fprintf(w, "  ops warm %d / sync %d / cap %d; sync samples add %d, del %d, sub+unsub %d\n",
		r.Ops["warm"], r.Ops["sync"], r.Ops["cap"], r.Samples["sync_add"], r.Samples["sync_del"], r.Samples["sync_sub"])
	for _, m := range endToEndMetrics {
		if s, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-26s %12.3f %-5s (repetitions: min %.3f, max %.3f, n=%d)\n", m.Name, s.Value, s.Unit, s.Min, s.Max, len(s.Reps))
		}
	}
	names := make([]string, 0, len(r.PerLayer))
	for k := range r.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %12.3f %s\n", k, r.PerLayer[k].Value, r.PerLayer[k].Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, b := range r.Breaches {
		fmt.Fprintf(w, "  BREACH: %s\n", b)
	}
}
