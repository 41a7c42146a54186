package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVet compiles the real hetlbvet binary once per test run: the
// integration contract under test is the installed tool's behaviour — exit
// codes, stderr shape, SARIF files — not the in-process analyzer API.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hetlbvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hetlbvet: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a temp module from file name → contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runVet executes the binary in dir and returns exit code and stderr.
func runVet(t *testing.T, bin, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("running hetlbvet: %v\n%s", err, stderr.String())
	return -1, ""
}

const goMod = "module fixture\n\ngo 1.22\n"

func TestIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the real binary")
	}
	bin := buildVet(t)

	t.Run("clean module exits 0", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": goMod,
			"core/core.go": `package core

// Sum is deterministic: slice order, no clocks, no map ranges.
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
`,
		})
		code, stderr := runVet(t, bin, dir, "./...")
		if code != 0 {
			t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
		}
	})

	t.Run("findings exit 1", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": goMod,
			"core/core.go": `package core

// Keys iterates a map in a determinism-scoped package: a finding.
func Keys(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
`,
		})
		code, stderr := runVet(t, bin, dir, "./...")
		if code != 1 {
			t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "determinism") {
			t.Errorf("stderr does not name the analyzer:\n%s", stderr)
		}
	})

	t.Run("load error exits 2", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":       goMod,
			"core/core.go": "package core\n\nfunc Broken( {\n",
		})
		code, stderr := runVet(t, bin, dir, "./...")
		if code != 2 {
			t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
		}
	})

	t.Run("phasefreeze catches a worker-path write to a frozen field", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": goMod,
			"shardgossip/engine.go": `package shardgossip

type engine struct {
	//hetlb:frozen
	down  []bool
	start []chan struct{}
}

func (e *engine) run() {
	for s := range e.start {
		go e.worker(s)
	}
}

func (e *engine) worker(s int) {
	for range e.start[s] {
		e.session(s)
	}
}

func (e *engine) session(i int) {
	e.down[i] = false
}
`,
		})
		code, stderr := runVet(t, bin, dir, "./...")
		if code != 1 {
			t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "write to frozen field down on a worker path") {
			t.Errorf("stderr does not carry the phasefreeze finding:\n%s", stderr)
		}
		if !strings.Contains(stderr, "→ (*engine).session") {
			t.Errorf("stderr does not carry the spawn path to the write:\n%s", stderr)
		}
		if !strings.Contains(stderr, "phasefreeze") {
			t.Errorf("stderr does not name phasefreeze:\n%s", stderr)
		}
	})

	t.Run("sarif written with module-relative URIs", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": goMod,
			"core/core.go": `package core

func Keys(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
`,
		})
		sarifPath := filepath.Join(dir, "lint.sarif")
		code, stderr := runVet(t, bin, dir, "-sarif="+sarifPath, "./...")
		if code != 1 {
			t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
		}
		data, err := os.ReadFile(sarifPath)
		if err != nil {
			t.Fatalf("SARIF file not written on findings: %v", err)
		}
		var log struct {
			Version string `json:"version"`
			Runs    []struct {
				Tool struct {
					Driver struct {
						Name  string `json:"name"`
						Rules []struct {
							ID string `json:"id"`
						} `json:"rules"`
					} `json:"driver"`
				} `json:"tool"`
				Results []struct {
					RuleID    string `json:"ruleId"`
					Locations []struct {
						PhysicalLocation struct {
							ArtifactLocation struct {
								URI string `json:"uri"`
							} `json:"artifactLocation"`
							Region struct {
								StartLine int `json:"startLine"`
							} `json:"region"`
						} `json:"physicalLocation"`
					} `json:"locations"`
				} `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(data, &log); err != nil {
			t.Fatalf("SARIF is not valid JSON: %v", err)
		}
		if log.Version != "2.1.0" {
			t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
		}
		if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "hetlbvet" {
			t.Fatalf("SARIF driver malformed: %s", data)
		}
		if len(log.Runs[0].Tool.Driver.Rules) == 0 {
			t.Error("SARIF carries no rules")
		}
		if len(log.Runs[0].Results) == 0 {
			t.Fatal("SARIF carries no results for a finding run")
		}
		r := log.Runs[0].Results[0]
		if r.RuleID != "determinism" {
			t.Errorf("result ruleId = %q, want determinism", r.RuleID)
		}
		uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if uri != "core/core.go" {
			t.Errorf("result URI = %q, want module-relative core/core.go", uri)
		}
		if r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Error("result has no start line")
		}
	})

	t.Run("sarif written on a clean run too", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":       goMod,
			"core/core.go": "package core\n\nfunc Ok() {}\n",
		})
		sarifPath := filepath.Join(dir, "lint.sarif")
		code, stderr := runVet(t, bin, dir, "-sarif="+sarifPath, "./...")
		if code != 0 {
			t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
		}
		if _, err := os.Stat(sarifPath); err != nil {
			t.Fatalf("SARIF file not written on clean run: %v", err)
		}
	})
}
