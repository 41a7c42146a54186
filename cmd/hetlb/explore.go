package main

import (
	"flag"
	"fmt"

	"hetlb/internal/core"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// cmdExplore enumerates the schedules reachable from an initial
// distribution under every DLB2C balancing sequence — the Proposition 8
// analysis — either on the built-in cycling instance or on random ones.
// With -tries N it draws up to N random instances from one generator and
// reports the first whose reachable set proves non-convergence (or the
// last one drawn); this search is how workload.CycleInstance was found.
func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	builtin := fs.Bool("builtin", true, "use the built-in Proposition 8 instance (false: random instance)")
	m1 := fs.Int("m1", 2, "cluster 0 machines (random instance)")
	m2 := fs.Int("m2", 1, "cluster 1 machines (random instance)")
	jobs := fs.Int("jobs", 5, "jobs (random instance)")
	hi := fs.Int64("hi", 5, "maximum job cost (random instance)")
	seed := fs.Uint64("seed", 1, "random seed")
	maxStates := fs.Int("maxstates", 100000, "state cap")
	tries := fs.Int("tries", 1, "random instances to draw, stopping at the first that proves non-convergence (random instance)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxStates < 1 {
		return fmt.Errorf("-maxstates = %d; want a state cap of at least 1", *maxStates)
	}

	var tc *core.TwoCluster
	var start *core.Assignment
	var r *protocol.Reachability
	if *builtin {
		tc, start = workload.CycleInstance()
		fmt.Println("built-in Proposition 8 instance (2+1 machines, 5 jobs)")
		r = protocol.Explore(protocol.DLB2C{Model: tc}, start, *maxStates)
	} else {
		// The generator and constructor treat bad sizes as programming
		// errors and panic, so command-line input is checked here first.
		switch {
		case *m1 < 1:
			return fmt.Errorf("-m1 = %d; want at least 1 machine", *m1)
		case *m2 < 1:
			return fmt.Errorf("-m2 = %d; want at least 1 machine", *m2)
		case *jobs < 1:
			return fmt.Errorf("-jobs = %d; want at least 1 job", *jobs)
		case *hi < 1:
			return fmt.Errorf("-hi = %d; want a cost of at least 1", *hi)
		case *hi >= core.Infinite:
			return fmt.Errorf("-hi = %d; want a cost below %d, which marks a job that cannot run", *hi, core.Infinite)
		case *tries < 1:
			return fmt.Errorf("-tries = %d; want at least 1 instance", *tries)
		}
		var try int
		tc, start, r, try = searchNonConvergence(rng.New(*seed), *m1, *m2, *jobs, *hi, *tries, *maxStates)
		fmt.Printf("random instance: %d+%d machines, %d jobs, costs U[1,%d], seed %d",
			*m1, *m2, *jobs, *hi, *seed)
		if *tries == 1 {
			fmt.Println()
		} else {
			fmt.Printf(", try %d of %d\n", try, *tries)
			fmt.Printf("  p0 = %v\n  p1 = %v\n  placement = %v\n",
				tc.ClusterCosts(0), tc.ClusterCosts(1), placement(start))
		}
	}

	proto := protocol.DLB2C{Model: tc}
	fmt.Printf("reachable schedules: %d (truncated: %v)\n", r.States, r.Truncated)
	fmt.Printf("stable schedules:    %d\n", r.StableStates)
	fmt.Printf("makespan range:      [%d, %d]\n", r.MinMakespan, r.MaxMakespan)
	switch {
	case r.ProvesNonConvergence():
		fmt.Println("verdict: PROVEN non-convergent — no balancing sequence can ever stabilize")
		cyc := protocol.FindCycle(proto, start, *maxStates)
		if len(cyc) > 1 {
			fmt.Printf("explicit cycle of %d steps:\n", len(cyc)-1)
			for k, s := range cyc {
				fmt.Printf("  %d: %s\n", k, s)
			}
		}
	case r.Truncated:
		fmt.Println("verdict: inconclusive (state cap hit; raise -maxstates)")
	default:
		fmt.Println("verdict: at least one stable schedule is reachable")
	}
	return nil
}

// searchNonConvergence draws up to tries random instances from gen — costs
// U[1,hi] on each cluster (workload.UniformTwoCluster), then a uniform
// placement — and explores DLB2C from each. It returns the first instance
// whose exploration proves non-convergence, or the last one drawn, with its
// exploration and its 1-based try number.
func searchNonConvergence(gen *rng.RNG, m1, m2, jobs int, hi int64, tries, maxStates int) (*core.TwoCluster, *core.Assignment, *protocol.Reachability, int) {
	for try := 1; ; try++ {
		tc := workload.UniformTwoCluster(gen, m1, m2, jobs, 1, hi)
		start := core.NewAssignment(tc)
		for j := 0; j < jobs; j++ {
			start.Assign(j, gen.Intn(m1+m2))
		}
		r := protocol.Explore(protocol.DLB2C{Model: tc}, start, maxStates)
		if r.ProvesNonConvergence() || try == tries {
			return tc, start, r, try
		}
	}
}

// placement returns the machine of every job of a.
func placement(a *core.Assignment) []int {
	out := make([]int, a.Model().NumJobs())
	for j := range out {
		out[j] = a.MachineOf(j)
	}
	return out
}
