// Command hetlbbench is the repository benchmark. Four fixed-work workloads
// drive the library through its public functions — the hetlb facade, and
// shardgossip.New/StepEpoch where the facade cannot stop at a makespan
// threshold — and time those calls from outside. Run it from the repository
// root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -all [-seed 1] [-seconds 20] [-out results.json]
//	bash bench/run.sh -compare A.json B.json
//
// A single run sets its workload up several times (the median is setup_s),
// then runs the workload's units of work until the seconds are spent,
// covering its whole work set at least once and checking every unit's
// output outside the timers. It prints each metric by name with its unit
// and, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run pairs every
// traced unit with the same unit untraced and fails if they differ in
// sessions, moves, makespan or convergence.
//
// -all runs every workload in its own process, allRuns times untraced and
// once traced, prints the medians and writes a result file; -compare reads two
// result files and judges each workload × metric against the bounds in
// BENCHMARK.json. See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// A run sets up at least minSetups times, and keeps setting up until
// setupBudget is spent or maxSetups is reached, so that millisecond setups
// get enough repetitions for a steady median (setup_s). It then measures at
// least minUnits units however short --seconds is. -all runs each workload
// allRuns times untraced.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
	minUnits    = 3
	allRuns     = 3
)

func main() {
	name := flag.String("workload", "", "run one workload")
	seed := flag.Uint64("seed", 1, "workload seed; instance, engine and crash-plan seeds derive from it")
	seconds := flag.Float64("seconds", 20, "how long a run repeats its unit of work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	all := flag.Bool("all", false, fmt.Sprintf("run every workload %d times untraced (seeds DeriveSeed(seed, r)) and once traced", allRuns))
	out := flag.String("out", ".bench_build/results.json", "result file written by -all")
	compare := flag.Bool("compare", false, "compare two result files against the bounds in BENCHMARK.json: -compare A.json B.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *all:
		if err := runAll(os.Stdout, *seed, *seconds, *out); err != nil {
			fatalf("%v", err)
		}
	default:
		w, ok := workloadNamed(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		if *trace != 0 && *trace != 1 {
			fatalf("-trace must be 0 or 1")
		}
		e := currentEnv()
		e.Workload, e.Seed = w.name, *seed
		if e.NProc < shards {
			fmt.Fprintf(os.Stderr, "warning: %d CPUs for %d shards; parallel layers will be oversubscribed\n", e.NProc, shards)
		}
		line, _ := json.Marshal(e) // strings and numbers only: cannot fail
		fmt.Printf("# env %s\n", line)
		res := run(w, fullParams, *seed, *seconds, *trace == 1, os.Stderr)
		if err := writeResult(os.Stdout, res); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hetlbbench: "+format+"\n", args...)
	os.Exit(2)
}

type metric struct {
	name, unit string
	value      float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	order []string // metric print order
}

func newResult(attempted, failed int, ms []metric) result {
	r := result{Correct: attempted > 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(ms))}
	for _, m := range ms {
		r.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
		r.order = append(r.order, m.name)
	}
	return r
}

// writeResult prints one metric per line, then the JSON line.
func writeResult(w io.Writer, r result) error {
	for _, name := range r.order {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run executes one workload run: setup several times, then units until the
// time budget is spent. Failures are described on log.
func run(w workload, p params, seed uint64, seconds float64, traced bool, log io.Writer) result {
	fail := func(what string, err error) result {
		fmt.Fprintf(log, "%s: %s: %v\n", w.name, what, err)
		return result{Attempted: 1, Failed: 1, Metrics: map[string]value{}}
	}
	var inst instance
	var setups []float64
	var splits []setupTimes
	var setupTotal time.Duration
	for len(setups) < minSetups || (setupTotal < setupBudget && len(setups) < maxSetups) {
		inst = nil // let the previous setup's inputs be collected
		runtime.GC()
		var st setupTimes
		t0 := time.Now()
		i, err := w.setup(p, seed, &st)
		d := time.Since(t0)
		if err != nil {
			return fail("setup", err)
		}
		inst = i
		setupTotal += d
		setups = append(setups, d.Seconds())
		splits = append(splits, st)
	}

	// Unit 0 warms the heap and the caches and is not timed. peak_rss_mb is
	// the peak resident set while it runs with the garbage collector paused:
	// the inputs plus everything one unit allocates. The setups' garbage is
	// returned to the kernel and the high-water mark reset first. A peak
	// with the collector running depends on when its cycles start, which on
	// a busy host moved the small stable process's peak by half.
	debug.FreeOSMemory()
	resetPeakRSS()
	gcPercent := debug.SetGCPercent(-1)
	o, err := inst.unit(0)
	peakRSS := peakRSSMB()
	debug.SetGCPercent(gcPercent)
	if err == nil {
		err = inst.check(o)
	}
	attempted, failed := 1, 0
	if err != nil {
		failed++
		fmt.Fprintf(log, "%s: warm-up unit: %v\n", w.name, err)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Every run covers the whole work set at least once, so the
	// deterministic metrics (taken once per distinct unit) depend on the seed
	// alone; spare time repeats units for more timing samples.
	n := inst.units()
	per := make([]unitStats, n)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for k := 1; k <= max(n, minUnits) || time.Since(start) < budget; k++ {
		attempted++
		o, d, err := timedUnit(inst, k)
		if err == nil && traced {
			err = tracedUnit(inst, k, tr, o, d)
		}
		if err != nil {
			failed++
			fmt.Fprintf(log, "%s: unit %d: %v\n", w.name, k, err)
			continue
		}
		per[k%n].add(o, d)
	}

	if traced {
		return newResult(attempted, failed, tr.metrics(medianSetup(splits)))
	}
	var times, rates, exch, moves, ratios []float64
	for _, u := range per {
		if len(u.times) == 0 {
			continue
		}
		times = append(times, median(u.times))
		rates = append(rates, median(u.rates))
		exch = append(exch, u.exch)
		moves = append(moves, u.moves)
		ratios = append(ratios, u.ratio)
	}
	return newResult(attempted, failed, []metric{
		{"run_s", "s", median(times)},
		{"sessions_per_s", "1/s", median(rates)},
		{"setup_s", "s", median(setups)},
		{"peak_rss_mb", "MB", peakRSS},
		{"exchanges_per_machine", "count", median(exch)},
		{"moves_per_machine", "count", median(moves)},
		{"cmax_ratio", "ratio", median(ratios)},
	})
}

// unitStats collects one distinct unit's timings over its repetitions and
// its deterministic outcome.
type unitStats struct {
	times, rates       []float64
	exch, moves, ratio float64
}

func (u *unitStats) add(o outcome, d time.Duration) {
	u.times = append(u.times, d.Seconds())
	u.rates = append(u.rates, float64(o.sessions)/d.Seconds())
	u.exch = 2 * float64(o.sessions) / float64(o.machines)
	u.moves = float64(o.moves) / float64(o.machines)
	u.ratio = o.ratio
}

// timedUnit runs unit k untraced from a collected heap and gates it.
func timedUnit(inst instance, k int) (outcome, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	o, err := inst.unit(k)
	d := time.Since(t0)
	if err != nil {
		return o, d, err
	}
	return o, d, inst.check(o)
}

// tracedUnit runs unit k again under the tracer, gates it, and requires it
// to reproduce the untraced outcome u (which took d).
func tracedUnit(inst instance, k int, tr *tracer, u outcome, d time.Duration) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mismatches := tr.replayMismatch
	tr.beginUnit()
	t0 := time.Now()
	o, err := inst.traced(k, tr)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if err := inst.check(o); err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if !u.sameWork(o) {
		return fmt.Errorf("traced unit differs: sessions %d/%d, moves %d/%d, cmax %d/%d, converged %v/%v",
			u.sessions, o.sessions, u.moves, o.moves, u.cmax, o.cmax, u.converged, o.converged)
	}
	if tr.replayMismatch != mismatches {
		return fmt.Errorf("replayed sessions moved a different number of jobs than the engine")
	}
	tr.endUnit(wall, d, &before, &after, o)
	return nil
}

func medianSetup(s []setupTimes) setupTimes {
	var gen, ref, initial []float64
	for _, t := range s {
		gen = append(gen, float64(t.gen))
		ref = append(ref, float64(t.ref))
		initial = append(initial, float64(t.initial))
	}
	return setupTimes{gen: time.Duration(median(gen)), ref: time.Duration(median(ref)), initial: time.Duration(median(initial))}
}

// resetPeakRSS sets the process's peak resident set back to its current
// resident set (Linux 4.0 and later). Where the kernel refuses, the peak
// stays the peak since the process started.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.Write([]byte("5"))
	f.Close()
}

// peakRSSMB is the process's peak resident set size, VmHWM in
// /proc/self/status. Getrusage's Maxrss would also count the image the
// process replaced by exec (the shell running bench/run.sh), which on the
// small workloads exceeds the benchmark's own peak.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok { // "VmHWM:	   12345 kB"
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
