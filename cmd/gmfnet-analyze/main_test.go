package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExample(t *testing.T) {
	if err := run([]string{"-example"}); err != nil {
		t.Fatalf("-example failed: %v", err)
	}
}

func TestRunExampleWithAllFlags(t *testing.T) {
	if err := run([]string{"-example", "-stages", "-util", "-mode", "paper"}); err != nil {
		t.Fatalf("full flags failed: %v", err)
	}
}

func TestRunDump(t *testing.T) {
	if err := run([]string{"-dump"}); err != nil {
		t.Fatalf("-dump failed: %v", err)
	}
}

func TestRunScenarioFile(t *testing.T) {
	for _, name := range []string{"figure1.json", "campus.json", "voip-edge.json"} {
		path := filepath.Join("..", "..", "scenarios", name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("missing shipped scenario: %v", err)
		}
		if err := run([]string{path}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no input
		{"-mode", "psychic", "-example"}, // bad mode
		{"/nonexistent.json"},            // missing file
		{"a.json", "b.json"},             // too many args
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestUnschedulableScenarioReturnsError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	doc := `{
	  "hosts": ["a", "b"],
	  "switches": [],
	  "links": [{"a": "a", "b": "b", "rate": "10Mbit/s"}],
	  "flows": [{
	    "name": "hog", "route": ["a", "b"], "priority": 1,
	    "frames": [{"minSep": "10ms", "deadline": "10ms", "payloadBytes": 140000}]
	  }]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{path})
	if err == nil || !strings.Contains(err.Error(), "NOT schedulable") {
		t.Fatalf("err = %v, want NOT schedulable", err)
	}
}
