package workload

import "hetlb/internal/core"

// WorkStealingTrap builds the Table I instance of the paper (Theorem 1):
// 5 jobs on 3 machines where work stealing, started from the circled initial
// distribution, cannot perform its first steal before time n and finishes at
// n+1, while the optimal makespan is 2.
//
// Costs (machines A, B, C = 0, 1, 2):
//
//	job 0: 1  n  n   (initially on B)
//	job 1: 1  1  n   (initially on C)
//	job 2: n  1  1   (initially on A)
//	job 3: n  1  1   (initially on A)
//	job 4: n  1  1   (initially on A)
//
// Machine A grinds through jobs 2..4 at cost n each while B and C are pinned
// down by one job of cost n; nothing is stealable before time n because each
// victim's only job is already running. The optimal schedule puts jobs 0 and
// 1 on A (cost 1 each) and spreads jobs 2..4 over B and C for a makespan
// of 2.
func WorkStealingTrap(n core.Cost) (*core.Dense, *core.Assignment) {
	d := core.MustDense([][]core.Cost{
		{1, 1, n, n, n}, // machine A
		{n, 1, 1, 1, 1}, // machine B
		{n, n, 1, 1, 1}, // machine C
	})
	a, err := core.FromMachineOf(d, []int{1, 2, 0, 0, 0})
	if err != nil {
		panic(err)
	}
	return d, a
}

// WorkStealingTrapOptimal returns an optimal assignment for the Table I
// instance: jobs 0 and 1 on machine A, jobs 2 and 3 on B, job 4 on C, with
// makespan 2.
func WorkStealingTrapOptimal(d *core.Dense) *core.Assignment {
	a, err := core.FromMachineOf(d, []int{0, 0, 1, 1, 2})
	if err != nil {
		panic(err)
	}
	return a
}

// PairwiseTrap builds the Table II instance of the paper (Proposition 2):
// 3 jobs on 3 fully heterogeneous machines where the circled distribution is
// optimally balanced for every pair of machines, yet its makespan is n while
// the optimum is 1.
//
// Job j costs 1 on machine j, n on machine (j+1) mod 3 and n² on machine
// (j+2) mod 3; the trap assignment places job j on machine (j+1) mod 3.
func PairwiseTrap(n core.Cost) (*core.Dense, *core.Assignment) {
	n2 := n * n
	p := make([][]core.Cost, 3)
	for i := range p {
		p[i] = make([]core.Cost, 3)
	}
	for j := 0; j < 3; j++ {
		p[j][j] = 1
		p[(j+1)%3][j] = n
		p[(j+2)%3][j] = n2
	}
	d := core.MustDense(p)
	a, err := core.FromMachineOf(d, []int{1, 2, 0})
	if err != nil {
		panic(err)
	}
	return d, a
}

// PairwiseTrapOptimal returns the optimal assignment of the Table II
// instance (job j on machine j, makespan 1).
func PairwiseTrapOptimal(d *core.Dense) *core.Assignment {
	a, err := core.FromMachineOf(d, []int{0, 1, 2})
	if err != nil {
		panic(err)
	}
	return a
}

// CycleInstance builds a two-cluster instance on which DLB2C does not
// converge (Proposition 8 / Figure 1 of the paper): started from the
// returned assignment, there is a sequence of pairwise balancing operations
// that revisits the same schedule without ever reaching a stable state.
//
// The paper's own 5-job/3-machine instance is only given graphically
// (Figure 1(d)); the instance below — with the same shape, 5 jobs on 3
// machines split 2+1 across the clusters — was found by `hetlb explore
// -builtin=false -tries 400` (seed 1, try 351), which exhaustively
// enumerates the schedules reachable under every pairwise balancing
// sequence of random instances. From the returned assignment, 19 schedules
// are reachable, none of them stable, so DLB2C provably never converges
// here (verified by TestCycleInstanceNeverConverges).
func CycleInstance() (*core.TwoCluster, *core.Assignment) {
	// Cluster 0 has machines {0, 1}; cluster 1 has machine {2}.
	// Job costs per cluster:
	//	          j0  j1  j2  j3  j4
	//	cluster0:  1   4   2   1   5
	//	cluster1:  3   2   1   1   2
	tc, err := core.NewTwoCluster(2, 1,
		[]core.Cost{1, 4, 2, 1, 5},
		[]core.Cost{3, 2, 1, 1, 2},
	)
	if err != nil {
		panic(err)
	}
	a, err := core.FromMachineOf(tc, []int{1, 0, 1, 0, 1})
	if err != nil {
		panic(err)
	}
	return tc, a
}
