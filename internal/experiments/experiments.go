// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver is deterministic given its configuration,
// returns structured results, and can render itself as plot series and text
// so `hetlb figures` can regenerate the full evaluation. The drivers accept
// scaled-down parameters for tests; the Paper* config constructors return
// the exact parameters used in the paper.
//
// Index (see DESIGN.md for the full mapping):
//
//	Table I    — work stealing unbounded ratio (Theorem 1)
//	Table II   — pairwise-optimal trap (Proposition 2)
//	Figure 1   — DLB2C non-convergence cycle (Proposition 8)
//	Figure 2a  — stationary makespan pdf, m=6, varying pmax
//	Figure 2b  — stationary makespan pdf, pmax=4, varying m
//	Figure 3   — simulated equilibrium makespan distribution, 2 clusters vs 1
//	Figure 4   — makespan trajectories over exchanges
//	Figure 5   — exchanges per machine to first reach 1.5× CLB2C
package experiments

import (
	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/harness"
	"hetlb/internal/workload"
	"hetlb/internal/worksteal"
)

// Every driver in this package executes its replications through
// harness.Map: one keyed RNG substream per replication, results addressed by
// index, optional worker-pool parallelism. The plain constructors
// (TableI, Figure3, ...) run with harness defaults; the *With variants take
// harness.Options so callers (`hetlb figures`, tests) can set
// parallelism, deadlines and observability. A driver's output is identical
// for every Options.Parallelism — see determinism_test.go.

// must surfaces harness errors in the plain wrappers. Their replication
// bodies cannot fail and they pass no cancellable context, so an error here
// is a programming bug, not an operational condition.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TableIRow is one n column of Table I's reproduction: the behaviour of
// work stealing on the trap instance.
type TableIRow struct {
	// N is the trap parameter (cost of a job on its trap machine).
	N core.Cost
	// FirstSteal is when the first successful steal happened.
	FirstSteal int64
	// Makespan is the work-stealing completion time.
	Makespan int64
	// Opt is the optimal makespan (always 2 on this instance).
	Opt core.Cost
	// Ratio is Makespan/Opt — grows linearly in N (Theorem 1).
	Ratio float64
}

// TableI reproduces Theorem 1: for each n it runs work stealing from the
// circled distribution of Table I and reports the first steal time and the
// achieved makespan against the optimum.
func TableI(ns []core.Cost, seed uint64) []TableIRow {
	return must(TableIWith(harness.Options{}, ns, seed))
}

// TableIWith is TableI with explicit harness options; each n column is one
// replication.
func TableIWith(opt harness.Options, ns []core.Cost, seed uint64) ([]TableIRow, error) {
	return harness.Map(opt, seed, len(ns), func(rep *harness.Rep) (TableIRow, error) {
		n := ns[rep.Index]
		d, init := workload.WorkStealingTrap(n)
		sim, err := worksteal.New(d, init, worksteal.Config{Seed: rep.RNG.Uint64()})
		if err != nil {
			panic(err) // static instance; cannot fail
		}
		st := sim.Run()
		opt := exact.Solve(d).Opt
		return TableIRow{
			N:          n,
			FirstSteal: st.FirstStealTime,
			Makespan:   st.Makespan,
			Opt:        opt,
			Ratio:      float64(st.Makespan) / float64(opt),
		}, nil
	})
}

// TableIIRow is one n column of the Table II reproduction.
type TableIIRow struct {
	// N is the trap parameter.
	N core.Cost
	// TrapMakespan is the makespan of the pairwise-stable circled
	// distribution (= N).
	TrapMakespan core.Cost
	// Opt is the optimal makespan (always 1).
	Opt core.Cost
	// PairwiseOptimal reports that no pair of machines can improve its
	// local makespan by any redistribution of its pooled jobs.
	PairwiseOptimal bool
}

// TableII reproduces Proposition 2: the circled distribution of Table II is
// optimally balanced for every machine pair yet its makespan is unbounded
// relative to OPT.
func TableII(ns []core.Cost) []TableIIRow {
	return must(TableIIWith(harness.Options{}, ns))
}

// TableIIWith is TableII with explicit harness options. The driver is fully
// deterministic (no randomness), so the harness contributes only the worker
// pool: the pairwise-optimality exhaustion per column is exponential in the
// pooled job count and dominates the run.
func TableIIWith(opt harness.Options, ns []core.Cost) ([]TableIIRow, error) {
	return harness.Map(opt, 0, len(ns), func(rep *harness.Rep) (TableIIRow, error) {
		n := ns[rep.Index]
		d, trap := workload.PairwiseTrap(n)
		return TableIIRow{
			N:               n,
			TrapMakespan:    trap.Makespan(),
			Opt:             exact.Solve(d).Opt,
			PairwiseOptimal: pairwiseOptimal(d, trap),
		}, nil
	})
}

// pairwiseOptimal checks by exhaustion that no pair of machines can lower
// the maximum of their two loads by re-splitting their pooled jobs.
func pairwiseOptimal(m core.CostModel, a *core.Assignment) bool {
	mm := m.NumMachines()
	for m1 := 0; m1 < mm; m1++ {
		for m2 := m1 + 1; m2 < mm; m2++ {
			var jobs []int
			for j := 0; j < m.NumJobs(); j++ {
				if i := a.MachineOf(j); i == m1 || i == m2 {
					jobs = append(jobs, j)
				}
			}
			cur := a.Load(m1)
			if l2 := a.Load(m2); l2 > cur {
				cur = l2
			}
			best := cur
			for mask := 0; mask < 1<<len(jobs); mask++ {
				var l1, l2 core.Cost
				for b, j := range jobs {
					if mask&(1<<b) != 0 {
						l1 += m.Cost(m1, j)
					} else {
						l2 += m.Cost(m2, j)
					}
				}
				v := l1
				if l2 > v {
					v = l2
				}
				if v < best {
					best = v
				}
			}
			if best < cur {
				return false
			}
		}
	}
	return true
}
