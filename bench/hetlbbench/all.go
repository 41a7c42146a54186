package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hetlb"
)

// env is the environment a result was measured in.
type env struct {
	// NProc is runtime.NumCPU: the CPUs in the process's affinity mask,
	// the count nproc prints.
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Revision    string `json:"revision"`
	Shards      int    `json:"shards"`
	Parallelism int    `json:"parallelism"`
	Workload    string `json:"workload,omitempty"`
	Seed        uint64 `json:"seed"`
}

func currentEnv() env {
	e := env{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    "unknown",
		Revision:    "unknown",
		Shards:      shards,
		Parallelism: parallelism,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" && e.Revision != "unknown" {
					e.Revision += "+dirty"
				}
			}
		}
	}
	return e
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Env     env     `json:"env"`
	Seconds float64 `json:"seconds"`
	Runs    []entry `json:"runs"`
}

type entry struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runAll runs every workload in its own process: allRuns untraced runs with
// seeds DeriveSeed(seed, r) for r = 0, 1, ..., then one traced run with the
// first of them. It prints the medians and writes the result file.
func runAll(w io.Writer, seed uint64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: currentEnv(), Seconds: seconds}
	file.Env.Seed = seed
	for _, wl := range workloads {
		for r := 0; r <= allRuns; r++ {
			trace, s := 0, hetlb.DeriveSeed(seed, uint64(r))
			if r == allRuns {
				trace, s = 1, hetlb.DeriveSeed(seed, 0)
			}
			res, err := child(self, wl.name, s, seconds, trace)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", wl.name, s, trace, err)
			}
			file.Runs = append(file.Runs, entry{Workload: wl.name, Seed: s, Trace: trace, Result: res})
		}
	}
	summarize(w, file)
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", out)
	return nil
}

// child runs one workload in a fresh process and parses its last line.
func child(self, name string, seed uint64, seconds float64, trace int) (result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// summarize prints, per workload, each end-to-end metric's median and
// quartiles over the untraced runs, the traced run's per-layer metrics with
// its largest layer, and the correctness verdict.
func summarize(w io.Writer, f resultFile) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s %q rev %s, S=%d, parallelism=%d, %gs per run\n",
		f.Env.NProc, f.Env.GOMAXPROCS, f.Env.GoVersion, f.Env.CPUModel, f.Env.Revision, f.Env.Shards, f.Env.Parallelism, f.Seconds)
	for _, wl := range workloads {
		untraced, traced := byTrace(f, wl.name)
		fmt.Fprintf(w, "\n== %s (%d untraced runs, %d traced)\n", wl.name, len(untraced), len(traced))
		correct := true
		for _, e := range append(untraced, traced...) {
			correct = correct && e.Result.Correct
		}
		for _, name := range metricNames(untraced) {
			vals, unit := values(untraced, name)
			q1, q2, q3 := quartiles(vals)
			fmt.Fprintf(w, "  %-24s %14.6g %-6s [%.6g, %.6g]\n", name, q2, unit, q1, q3)
		}
		for _, e := range traced {
			largest, most := "", -1.0
			for _, name := range metricNames([]entry{e}) {
				v := e.Result.Metrics[name]
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
				if slices.Contains(layerNames[:], name) && v.Value > most {
					largest, most = name, v.Value
				}
			}
			fmt.Fprintf(w, "  largest layer: %s (%.4g s per unit)\n", largest, most)
		}
		fmt.Fprintf(w, "  correct: %v\n", correct)
	}
}

func byTrace(f resultFile, workload string) (untraced, traced []entry) {
	for _, e := range f.Runs {
		switch {
		case e.Workload != workload:
		case e.Trace == 0:
			untraced = append(untraced, e)
		default:
			traced = append(traced, e)
		}
	}
	return untraced, traced
}

func metricNames(es []entry) []string {
	seen := map[string]bool{}
	var names []string
	for _, e := range es {
		for name := range e.Result.Metrics {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(es []entry, name string) ([]float64, string) {
	var vals []float64
	unit := ""
	for _, e := range es {
		if v, ok := e.Result.Metrics[name]; ok {
			vals = append(vals, v.Value)
			unit = v.Unit
		}
	}
	return vals, unit
}

// benchmarkDef is the part of BENCHMARK.json -compare needs.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// deterministic metrics are exact functions of the seed: two runs of the
// same code with the same seed must agree on them exactly.
var deterministic = map[string]bool{
	"exchanges_per_machine": true,
	"moves_per_machine":     true,
	"cmax_ratio":            true,
}

// compareFiles prints, for each workload × end-to-end metric, the median and
// quartiles of A and B and a verdict: within, worse, unresolved (the spread
// between runs exceeds the bound, and B does not beat A on every run), or
// differs (a deterministic metric changed on some seed). It reports whether
// any verdict was worse or differs.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	var def benchmarkDef
	if err := readJSON(benchPath, &def); err != nil {
		return false, err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-22s %-22s %12s %25s %12s %25s  %s\n", "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "verdict")
	for _, wl := range workloads {
		ua, _ := byTrace(a, wl.name)
		ub, _ := byTrace(b, wl.name)
		if len(ua) == 0 || len(ub) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, _ := values(ua, m.Name)
			vb, _ := values(ub, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(m.Name, m.Better, m.Bound, ua, ub, va, vb)
			bad = bad || verdict == "worse" || verdict == "differs"
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-22s %-22s %12.6g %25s %12.6g %25s  %s\n", wl.name, m.Name,
				a2, fmt.Sprintf("[%.6g, %.6g]", a1, a3), b2, fmt.Sprintf("[%.6g, %.6g]", b1, b3), verdict)
		}
	}
	return bad, nil
}

func judge(name, better string, bound float64, ua, ub []entry, va, vb []float64) string {
	if deterministic[name] {
		bySeed := map[uint64]float64{}
		for _, e := range ua {
			bySeed[e.Seed] = e.Result.Metrics[name].Value
		}
		for _, e := range ub {
			if v, ok := bySeed[e.Seed]; ok && v != e.Result.Metrics[name].Value {
				return "differs"
			}
		}
		return "within"
	}
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	if a2 == 0 || b2 == 0 {
		return "unresolved"
	}
	change := sign * (b2 - a2) / a2
	spread := math.Max((a3-a1)/a2, (b3-b1)/b2)
	switch {
	case allBetter(sign, va, vb):
		return "within"
	case spread > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	}
	return "within"
}

// allBetter reports whether every run of B reads better than every run of A.
func allBetter(sign float64, va, vb []float64) bool {
	for _, x := range va {
		for _, y := range vb {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
