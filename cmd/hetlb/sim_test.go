package main

import (
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
