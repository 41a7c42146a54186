package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimRejectsBadSizes feeds cmdSim size flags that no instance can be
// built or balanced from; each must come back as an error, not a panic.
func TestSimRejectsBadSizes(t *testing.T) {
	cases := [][]string{
		{"-m1", "0"},
		{"-m1", "-3"},
		{"-proto", "dlb2c", "-m2", "0"},
		{"-jobs", "-5"},
		{"-jobs", "0"},
		{"-proto", "mjtb", "-types", "0"},
		{"-lo", "5", "-hi", "1"},
		{"-proto", "homog", "-lo", "-1"},
		{"-lo", "0", "-hi", "9223372036854775807"},
		{"-proto", "homog", "-m1", "1", "-jobs", "4"},
		{"-proto", "ojtb", "-m1", "1"},
		{"-proto", "homog", "-m1", "1", "-jobs", "4", "-shards", "2"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cmdSim %v panicked: %v", args, r)
				}
			}()
			if err := cmdSim(args); err == nil {
				t.Fatalf("cmdSim %v accepted", args)
			}
		})
	}
}

// TestSimAcceptsSmallSizes guards the other side of the validation: the
// smallest meaningful systems still run.
func TestSimAcceptsSmallSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "dlb2c", "-m1", "1", "-m2", "1", "-jobs", "4", "-steps", "20"},
		{"-proto", "homog", "-m1", "2", "-jobs", "1", "-steps", "20"},
		{"-proto", "mjtb", "-m1", "2", "-jobs", "4", "-types", "1", "-lo", "3", "-hi", "3", "-steps", "20"},
	} {
		if err := cmdSim(args); err != nil {
			t.Fatalf("cmdSim %v: %v", args, err)
		}
	}
}

// TestSimShardedTraceOut renders --trace-out on the sharded engine: the
// Chrome trace must be valid JSON with one event per record of the
// --span-out JSONL written by the same run.
func TestSimShardedTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	spanPath := filepath.Join(dir, "spans.jsonl")
	args := []string{"-proto", "dlb2c", "-m1", "8", "-m2", "4", "-jobs", "96", "-shards", "2",
		"--trace-out=" + tracePath, "--span-out=" + spanPath}
	if err := cmdSim(args); err != nil {
		t.Fatalf("cmdSim %v: %v", args, err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Events []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	f, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	records := -1 // the first line is the header
	for sc.Scan() {
		records++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records <= 0 || len(trace.Events) != records {
		t.Fatalf("trace has %d events, span JSONL %d records", len(trace.Events), records)
	}
}
