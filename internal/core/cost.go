// Package core defines the scheduling problem studied by the paper:
// independent, sequential, non-preemptible jobs must be partitioned onto
// unrelated machines to minimize the makespan (R||Cmax in Graham's
// three-field notation).
//
// The package provides the cost models (identical, related, unrelated, typed
// jobs, two clusters), the Assignment type that all balancing algorithms
// manipulate, and makespan/work/lower-bound computations. Everything else in
// the repository is built on top of these types.
package core

import "fmt"

// Cost is a processing time expressed in abstract integer time units.
// Integer costs are used deliberately: the paper's Markov analysis operates
// on integer load vectors, and integer arithmetic keeps every pairwise
// balancing decision exactly reproducible (no floating-point ties).
type Cost = int64

// Infinite marks a job that cannot run on a machine. It is large enough to
// dominate any realistic schedule while leaving headroom so that sums of a
// few infinite costs do not overflow int64.
const Infinite Cost = 1 << 50

// CostModel exposes the processing-time matrix p[i][j] of an instance.
// Implementations may store the full dense matrix or exploit structure
// (typed jobs, clustered machines) to answer in O(1) from compact storage.
type CostModel interface {
	// NumMachines returns m, the number of machines.
	NumMachines() int
	// NumJobs returns n, the number of jobs.
	NumJobs() int
	// Cost returns the processing time of job j on machine i.
	Cost(machine, job int) Cost
}

// CompareRatios orders two cost ratios exactly by integer cross
// multiplication: it returns a negative number when p1/q1 < p2/q2, a
// positive one when p1/q1 > p2/q2, and 0 when they are equal (x/0 is +∞).
// A job priced 0 on both sides counts as ratio 1/1: its cross products are
// otherwise 0 against every job, which would tie it with all of them and
// make the order intransitive. Exact while the products fit in an int64.
// It is the order behind CLB2C and Greedy Load Balancing.
func CompareRatios(p1, q1, p2, q2 Cost) int {
	if p1 == 0 && q1 == 0 {
		p1, q1 = 1, 1
	}
	if p2 == 0 && q2 == 0 {
		p2, q2 = 1, 1
	}
	l1, l2 := p1*q2, p2*q1
	switch {
	case l1 < l2:
		return -1
	case l1 > l2:
		return 1
	default:
		return 0
	}
}

// TotalWorkOn returns the sum over all jobs of their cost on the given
// machine. It is mostly useful for single-cluster reasoning where each job
// costs the same on every machine of the cluster.
func TotalWorkOn(m CostModel, machine int) Cost {
	var w Cost
	for j := 0; j < m.NumJobs(); j++ {
		w += m.Cost(machine, j)
	}
	return w
}

// MinCost returns the smallest processing time of job j over all machines,
// along with a machine achieving it.
func MinCost(m CostModel, job int) (Cost, int) {
	best := m.Cost(0, job)
	arg := 0
	for i := 1; i < m.NumMachines(); i++ {
		if c := m.Cost(i, job); c < best {
			best, arg = c, i
		}
	}
	return best, arg
}

// MaxCost returns the largest finite processing time of job j over all
// machines. If the job is infinite everywhere the returned cost is Infinite.
func MaxCost(m CostModel, job int) Cost {
	var best Cost = -1
	for i := 0; i < m.NumMachines(); i++ {
		if c := m.Cost(i, job); c < Infinite && c > best {
			best = c
		}
	}
	if best < 0 {
		return Infinite
	}
	return best
}

// Checker is implemented by cost models that can verify their own invariants
// faster than a dense scan by exploiting their structure: Identical and
// TwoCluster read O(n) stored costs, Related reads O(m+n), Typed reads
// O(m·k+n) — never the m·n product the dense matrix view suggests. CheckModel
// dispatches to it when present.
type Checker interface {
	// Check verifies the model's invariants (non-negative costs plus any
	// structure the model promises) and returns a descriptive error on the
	// first violation.
	Check() error
}

// checkCellBudget bounds how many Cost lookups CheckModel spends on a model
// that exposes no structure (no Checker implementation). Below the budget the
// full matrix is scanned; above it a deterministic per-row sample is checked
// instead, so validating a pathological 100k×10M dense view costs millions of
// lookups, not 10¹².
const checkCellBudget = 1 << 22

// CheckModel verifies basic sanity of a cost model: positive dimensions and
// non-negative costs. Algorithms in this repository assume these invariants.
//
// Models implementing Checker are verified through their own structure-aware
// fast path. For anything else the dense matrix is scanned in full only while
// m·n stays within checkCellBudget; larger models get a deterministic sample
// (every row, evenly strided columns, stride offset by the row index so
// neighbouring rows probe different columns). A sampled pass can miss an
// isolated negative cell — the structured models all implement Checker, so
// the sampling fallback only applies to models whose cost function is opaque
// and whose full scan is the very cost this check must avoid.
func CheckModel(m CostModel) error {
	if m.NumMachines() <= 0 {
		return fmt.Errorf("core: model has %d machines, need at least 1", m.NumMachines())
	}
	if m.NumJobs() < 0 {
		return fmt.Errorf("core: model has negative job count %d", m.NumJobs())
	}
	if c, ok := m.(Checker); ok {
		return c.Check()
	}
	return checkDenseView(m)
}

// checkDenseView validates an opaque model through its Cost method: a full
// scan within checkCellBudget, a strided per-row sample beyond it.
func checkDenseView(m CostModel) error {
	mach, n := m.NumMachines(), m.NumJobs()
	if n == 0 {
		return nil
	}
	if int64(mach)*int64(n) <= checkCellBudget {
		for i := 0; i < mach; i++ {
			for j := 0; j < n; j++ {
				if m.Cost(i, j) < 0 {
					return fmt.Errorf("core: negative cost p[%d][%d] = %d", i, j, m.Cost(i, j))
				}
			}
		}
		return nil
	}
	perRow := checkCellBudget / mach
	if perRow < 1 {
		perRow = 1
	}
	if perRow > n {
		perRow = n
	}
	stride := n / perRow
	for i := 0; i < mach; i++ {
		for t := 0; t < perRow; t++ {
			j := (i + t*stride) % n
			if m.Cost(i, j) < 0 {
				return fmt.Errorf("core: negative cost p[%d][%d] = %d (sampled)", i, j, m.Cost(i, j))
			}
		}
	}
	return nil
}
