package evaluation

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hetlb/internal/harness"
)

// TestRunReducedEndToEnd runs the complete reduced evaluation — every step
// `hetlb figures` exposes — into a temp dir and checks that each experiment
// emitted its CSV and some textual rendering. This is the
// integration test for the whole evaluation pipeline: drivers, harness,
// plotting and CSV emission.
func TestRunReducedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full reduced evaluation is a few seconds")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{
		OutDir:  dir,
		Reduced: true,
		Seed:    1,
		Harness: harness.Options{Parallelism: 2},
		Out:     &buf,
	}
	if err := Run(cfg, "all"); err != nil {
		t.Fatal(err)
	}
	for _, csv := range []string{
		"tableI.csv", "tableII.csv", "figure1.csv", "figure2a.csv",
		"figure2b.csv", "figure3.csv", "figure4.csv", "figure5.csv",
		"ext_kclusters.csv", "ext_dynamic.csv", "residual.csv", "chaos.csv",
	} {
		st, err := os.Stat(filepath.Join(dir, csv))
		if err != nil {
			t.Errorf("missing %s: %v", csv, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", csv)
		}
	}
	if buf.Len() == 0 {
		t.Error("evaluation produced no textual output")
	}
}

// TestRunUnknownStep pins the error path both CLIs rely on for flag
// validation.
func TestRunUnknownStep(t *testing.T) {
	var buf bytes.Buffer
	err := Run(Config{Out: &buf}, "fig6")
	if err == nil {
		t.Fatal("unknown step accepted")
	}
}

// TestRunSingleStepNoCSV checks that an empty OutDir disables CSV emission
// while the textual rendering still happens.
func TestRunSingleStepNoCSV(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Reduced: true, Seed: 1, Harness: harness.Sequential(), Out: &buf}
	if err := Run(cfg, "tableI"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("tableI step produced no output")
	}
}
