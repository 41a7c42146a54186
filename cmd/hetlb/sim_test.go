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

// TestCommandsRejectBadInput feeds the other subcommands flags that no
// instance can be built from, or that name nothing the command can run;
// each must come back as an error that names the flag, not as a panic and
// not as a run.
func TestCommandsRejectBadInput(t *testing.T) {
	cases := []struct {
		cmd  string
		run  func([]string) error
		args []string
		flag string
	}{
		{"explore", cmdExplore, []string{"-builtin=false", "-m1", "0"}, "-m1"},
		{"explore", cmdExplore, []string{"-builtin=false", "-m2", "-1"}, "-m2"},
		{"explore", cmdExplore, []string{"-builtin=false", "-hi", "0"}, "-hi"},
		{"explore", cmdExplore, []string{"-builtin=false", "-jobs", "-3"}, "-jobs"},
		{"explore", cmdExplore, []string{"-maxstates", "0"}, "-maxstates"},
		{"explore", cmdExplore, []string{"-builtin=false", "-maxstates", "-5"}, "-maxstates"},
		{"markov", cmdMarkov, []string{"-m", "0"}, "-m"},
		{"markov", cmdMarkov, []string{"-m", "0", "-mc", "10"}, "-m"},
		{"worksteal", cmdWorksteal, []string{"-m", "0"}, "-m"},
		{"worksteal", cmdWorksteal, []string{"-m", "-1"}, "-m"},
		{"worksteal", cmdWorksteal, []string{"-jobs", "-1"}, "-jobs"},
		{"worksteal", cmdWorksteal, []string{"-lo", "5", "-hi", "1"}, "-hi"},
		{"worksteal", cmdWorksteal, []string{"-hi", "9223372036854775807"}, "-hi"},
		{"chaos", cmdChaos, []string{"-m1", "0"}, "-m1"},
		{"chaos", cmdChaos, []string{"-m2", "0"}, "-m2"},
		{"chaos", cmdChaos, []string{"-jobs", "-1"}, "-jobs"},
		{"chaos", cmdChaos, []string{"-crashes", "-1"}, "-crashes"},
		{"chaos", cmdChaos, []string{"-shards", "1", "-crashes", "0,-1"}, "-crashes"},
		{"chaos", cmdChaos, []string{"-shards", "-2"}, "-shards"},
		{"chaos", cmdChaos, []string{"-shards", "1", "-lose", "2"}, "-lose"},
		{"chaos", cmdChaos, []string{"-parallel", "-3", "-runs", "2", "-m1", "4", "-m2", "4", "-jobs", "32"}, "-parallel"},
		{"chaos", cmdChaos, []string{"-shards", "1", "-parallel", "-1"}, "-parallel"},
		{"worksteal", cmdWorksteal, []string{"-lo", "-1"}, "-lo"},
		{"worksteal", cmdWorksteal, []string{"-trap", "-1"}, "-trap"},
	}
	for _, c := range cases {
		t.Run(c.cmd+" "+strings.Join(c.args, " "), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s %v panicked: %v", c.cmd, c.args, r)
				}
			}()
			err := c.run(c.args)
			if err == nil {
				t.Fatalf("%s %v accepted", c.cmd, c.args)
			}
			if !strings.Contains(err.Error(), c.flag) {
				t.Fatalf("%s %v: error %q does not name %s", c.cmd, c.args, err, c.flag)
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
