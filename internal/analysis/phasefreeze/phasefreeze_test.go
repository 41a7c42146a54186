package phasefreeze_test

import (
	"path/filepath"
	"strings"
	"testing"

	"hetlb/internal/analysis"
	"hetlb/internal/analysis/analysistest"
	"hetlb/internal/analysis/load"
	"hetlb/internal/analysis/phasefreeze"
)

// TestPhasefreeze runs the golden packages: freezebad holds worker-path
// writes to frozen fields, freezeclean pins the coordinator-phase and
// ownership-handoff shapes the real engine uses.
func TestPhasefreeze(t *testing.T) {
	testdata := filepath.Join("..", "testdata")
	analysistest.Run(t, testdata, phasefreeze.Analyzer,
		"freezebad/shardgossip", "freezeclean/shardgossip")
}

// TestOutOfScope proves the analyzer is inert outside the concurrency
// scope: unscopedlocks has the worker-path frozen write, but is not
// shardgossip.
func TestOutOfScope(t *testing.T) {
	loader := load.NewTestLoader(filepath.Join("..", "testdata", "src"))
	pkg, err := loader.Load("unscopedlocks")
	if err != nil {
		t.Fatalf("loading unscopedlocks: %v", err)
	}
	diags, _, err := analysis.Run(pkg, []*analysis.Analyzer{phasefreeze.Analyzer}, false)
	if err != nil {
		t.Fatalf("running phasefreeze: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("got %d diagnostics on an unscoped package, want 0: %+v", len(diags), diags)
	}
}

// TestMisplacedFrozen asserts directly (the diagnostic lands on the
// annotation's own line, where a want comment cannot coexist) that a
// //hetlb:frozen governing anything but a struct field is reported.
func TestMisplacedFrozen(t *testing.T) {
	loader := load.NewTestLoader(filepath.Join("..", "testdata", "src"))
	pkg, err := loader.Load("markbad/shardgossip")
	if err != nil {
		t.Fatalf("loading markbad/shardgossip: %v", err)
	}
	diags, _, err := analysis.Run(pkg, []*analysis.Analyzer{phasefreeze.Analyzer}, false)
	if err != nil {
		t.Fatalf("running phasefreeze: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %+v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "misplaced //hetlb:frozen") {
		t.Errorf("diagnostic %q does not report the misplaced mark", diags[0].Message)
	}
}
