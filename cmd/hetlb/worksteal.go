package main

import (
	"flag"
	"fmt"

	"hetlb"
	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// cmdWorksteal simulates the work-stealing baseline, either on the
// Theorem 1 trap instance or on a generated unrelated system.
func cmdWorksteal(args []string) error {
	fs := flag.NewFlagSet("worksteal", flag.ExitOnError)
	trap := fs.Int64("trap", 0, "run the Table I trap instance with this n (0 = generated instance)")
	m := fs.Int("m", 16, "machines (generated instance)")
	jobs := fs.Int("jobs", 128, "jobs (generated instance)")
	lo := fs.Int64("lo", 1, "minimum cost")
	hi := fs.Int64("hi", 1000, "maximum cost")
	latency := fs.Int64("latency", 0, "steal probe latency in time units")
	seed := fs.Uint64("seed", 1, "random seed")
	var ob obsFlags
	ob.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The generator treats bad sizes as programming errors and panics, so
	// command-line input is checked here first.
	if *trap < 0 {
		return fmt.Errorf("-trap = %d; want a positive n, or 0 for a generated instance", *trap)
	}
	switch {
	case *trap > 0: // the trap instance ignores the generator's flags
	case *m < 1:
		return fmt.Errorf("-m = %d; want at least 1 machine", *m)
	case *jobs < 1:
		return fmt.Errorf("-jobs = %d; want at least 1 job", *jobs)
	case *lo < 0:
		return fmt.Errorf("-lo = %d; want a non-negative cost", *lo)
	case *hi < *lo:
		return fmt.Errorf("-hi = %d is below -lo = %d", *hi, *lo)
	case *hi >= core.Infinite:
		return fmt.Errorf("-hi = %d; want a cost below %d, which marks a job that cannot run", *hi, core.Infinite)
	}
	sinks, err := ob.setup()
	if err != nil {
		return err
	}

	var model core.CostModel
	var initial *core.Assignment
	if *trap > 0 {
		d, init := workload.WorkStealingTrap(*trap)
		model, initial = d, init
		fmt.Printf("Table I trap instance, n=%d (OPT = 2)\n", *trap)
	} else {
		gen := rng.New(*seed)
		d := workload.UniformDense(gen, *m, *jobs, *lo, *hi)
		model = d
		initial = hetlb.RandomInitial(d, gen.Uint64())
		fmt.Printf("generated unrelated instance: %d machines, %d jobs, costs U[%d,%d]\n",
			*m, *jobs, *lo, *hi)
	}
	st, err := hetlb.WorkStealingRun(model, initial, hetlb.WorkStealingOptions{
		Seed:         *seed,
		StealLatency: *latency,
		Metrics:      sinks.Metrics,
		Spans:        sinks.Spans,
		Timeline:     sinks.Timeline,
	})
	if err != nil {
		return err
	}
	fmt.Printf("makespan: %d\n", st.Makespan)
	if st.FirstStealTime >= 0 {
		fmt.Printf("first successful steal at t=%d; %d steals, %d probes, %d jobs moved\n",
			st.FirstStealTime, st.Steals, st.Probes, st.JobsMoved)
	} else {
		fmt.Println("no steal ever succeeded")
	}
	if *trap > 0 {
		res := exact.Solve(model)
		fmt.Printf("OPT: %d → work stealing ratio %.1f (unbounded in n; Theorem 1)\n",
			res.Opt, float64(st.Makespan)/float64(res.Opt))
	} else if lb := core.LowerBound(model); lb > 0 {
		fmt.Printf("instance lower bound: %d → ratio ≤ %.2f of LB\n",
			lb, float64(st.Makespan)/float64(lb))
	}
	return ob.flush(sinks)
}
