package main

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"gmfnet/internal/exp"
)

// TestRunSingleExperiment reads the id range the -run help text
// advertises, runs every id in it through the command, and checks the
// range covers every experiment the package defines.
func TestRunSingleExperiment(t *testing.T) {
	m := regexp.MustCompile(`\(E(\d+)\.\.E(\d+)\)`).FindStringSubmatch(runUsage())
	if m == nil {
		t.Fatalf("help text %q lists no id range", runUsage())
	}
	lo, _ := strconv.Atoi(m[1])
	hi, _ := strconv.Atoi(m[2])
	listed := make(map[string]bool)
	for n := lo; n <= hi; n++ {
		id := fmt.Sprintf("E%d", n)
		listed[id] = true
		if err := run([]string{"-run", id}); err != nil {
			t.Fatalf("listed experiment %s failed: %v", id, err)
		}
	}
	for _, e := range exp.All() {
		if !listed[e.ID] {
			t.Fatalf("experiment %s missing from the help text %q", e.ID, runUsage())
		}
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-run", "E2", "-csv"}); err != nil {
		t.Fatalf("-csv failed: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
