package pairwise

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// apply splits the pair's pooled jobs with split and moves every job whose
// machine changed: one kernel step on an assignment.
func apply(a *core.Assignment, m1, m2 int, split func(jobs []int) (to1, to2 []int)) {
	to1, to2 := split(Union(a, m1, m2))
	for _, j := range to1 {
		if a.MachineOf(j) != m1 {
			a.Move(j, m1)
		}
	}
	for _, j := range to2 {
		if a.MachineOf(j) != m2 {
			a.Move(j, m2)
		}
	}
}

func basicGreedy(a *core.Assignment, m1, m2 int) {
	apply(a, m1, m2, func(jobs []int) ([]int, []int) {
		return AppendSplitBasicGreedy(a.Model(), m1, m2, jobs, nil, nil)
	})
}

func greedySameCost(a *core.Assignment, m1, m2 int) {
	apply(a, m1, m2, func(jobs []int) ([]int, []int) {
		return AppendSplitSameCost(a.Model(), m1, m2, jobs, nil, nil)
	})
}

func greedyLoadBalancing(a *core.Assignment, c core.Clustered, m1, m2 int) {
	var s Scratch
	apply(a, m1, m2, func(jobs []int) ([]int, []int) {
		return SplitGreedyLoadBalancingScratch(&s, c, m1, m2, jobs)
	})
}

func clb2cPair(a *core.Assignment, c core.Clustered, mA, mB int) {
	var s Scratch
	apply(a, mA, mB, func(jobs []int) ([]int, []int) {
		return SplitCLB2CScratch(&s, c, mA, mB, jobs)
	})
}

func TestUnion(t *testing.T) {
	d := core.MustDense([][]core.Cost{{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}})
	a, _ := core.FromMachineOf(d, []int{0, 1, 2, 0})
	got := Union(a, 0, 2)
	want := []int{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Union = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Union = %v, want %v", got, want)
		}
	}
}

func TestBasicGreedyOneTypeOptimal(t *testing.T) {
	// Lemma 3: with a single job type, BasicGreedy yields an optimal
	// two-machine schedule. Compare against the exact solver for random
	// machine costs and job counts.
	gen := rng.New(1)
	for iter := 0; iter < 100; iter++ {
		n := 1 + gen.Intn(10)
		p1 := gen.IntRange(1, 9)
		p2 := gen.IntRange(1, 9)
		ty, err := core.NewTyped([][]core.Cost{{p1}, {p2}}, make([]int, n))
		if err != nil {
			t.Fatal(err)
		}
		a := core.AllOnMachine(ty, 0)
		basicGreedy(a, 0, 1)
		opt := exact.Solve(ty).Opt
		if a.Makespan() != opt {
			t.Fatalf("BasicGreedy %d != OPT %d (n=%d, p=%d/%d)", a.Makespan(), opt, n, p1, p2)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBasicGreedyPreservesJobSet(t *testing.T) {
	gen := rng.New(2)
	d := workload.UniformDense(gen, 3, 12, 1, 50)
	a := core.RoundRobin(d)
	before := a.TotalWork()
	_ = before
	union := Union(a, 0, 1)
	outside := Union(a, 2, 2)
	basicGreedy(a, 0, 1)
	// Jobs of machine 2 untouched, union still on {0, 1}, all assigned.
	for _, j := range outside {
		if a.MachineOf(j) != 2 {
			t.Fatalf("job %d left machine 2", j)
		}
	}
	for _, j := range union {
		if i := a.MachineOf(j); i != 0 && i != 1 {
			t.Fatalf("job %d escaped the pair", j)
		}
	}
	if !a.Complete() {
		t.Fatal("jobs lost")
	}
}

func TestBasicGreedyIdempotent(t *testing.T) {
	gen := rng.New(3)
	for iter := 0; iter < 50; iter++ {
		d := workload.UniformDense(gen, 2, 10, 1, 30)
		a := core.RoundRobin(d)
		basicGreedy(a, 0, 1)
		b := a.Clone()
		basicGreedy(b, 0, 1)
		if !a.Equal(b) {
			t.Fatal("BasicGreedy is not idempotent")
		}
	}
}

func TestGreedySameCostBalances(t *testing.T) {
	// Identical machines: after GreedySameCost the imbalance is at most
	// the largest pooled job (the Markov model's transition condition).
	gen := rng.New(4)
	for iter := 0; iter < 100; iter++ {
		n := 1 + gen.Intn(12)
		id := workload.UniformIdentical(gen, 2, n, 1, 20)
		a := core.AllOnMachine(id, 0)
		greedySameCost(a, 0, 1)
		var pmax core.Cost
		for j := 0; j < n; j++ {
			if s := id.Size(j); s > pmax {
				pmax = s
			}
		}
		diff := a.Load(0) - a.Load(1)
		if diff < 0 {
			diff = -diff
		}
		if diff > pmax {
			t.Fatalf("imbalance %d exceeds pmax %d", diff, pmax)
		}
	}
}

func TestGreedySameCostIdempotent(t *testing.T) {
	gen := rng.New(5)
	id := workload.UniformIdentical(gen, 3, 10, 1, 100)
	a := core.RoundRobin(id)
	greedySameCost(a, 0, 2)
	b := a.Clone()
	greedySameCost(b, 0, 2)
	if !a.Equal(b) {
		t.Fatal("GreedySameCost is not idempotent")
	}
}

func TestGreedyLoadBalancingSameClusterOnly(t *testing.T) {
	tc, _ := core.NewTwoCluster(2, 2, []core.Cost{1, 2}, []core.Cost{2, 1})
	a := core.RoundRobin(tc)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-cluster GreedyLoadBalancing did not panic")
		}
	}()
	greedyLoadBalancing(a, tc, 0, 3)
}

func TestGreedyLoadBalancingBalancesAndConserves(t *testing.T) {
	gen := rng.New(6)
	for iter := 0; iter < 50; iter++ {
		tc := workload.UniformTwoCluster(gen, 3, 2, 20, 1, 50)
		a := core.RoundRobin(tc)
		work := a.TotalWork()
		greedyLoadBalancing(a, tc, 0, 2) // both in cluster 0
		if a.TotalWork() != work {
			t.Fatal("same-cluster balancing changed total work")
		}
		if !a.Complete() {
			t.Fatal("jobs lost")
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		// Imbalance bounded by the largest pooled job.
		var pmax core.Cost
		for _, j := range Union(a, 0, 2) {
			if c := tc.Cost(0, j); c > pmax {
				pmax = c
			}
		}
		diff := a.Load(0) - a.Load(2)
		if diff < 0 {
			diff = -diff
		}
		if diff > pmax && pmax > 0 {
			t.Fatalf("imbalance %d exceeds pooled pmax %d", diff, pmax)
		}
	}
}

func TestGreedyLoadBalancingMaxRatioPlacedLast(t *testing.T) {
	// The Theorem 7 machinery needs the max-ratio job of the loaded
	// machine to arrive last. With two jobs of very different ratios and a
	// fresh pool, the low-ratio job must be placed first (it lands on m1
	// by the tie rule), so after balancing the high-ratio job sits alone.
	tc, _ := core.NewTwoCluster(2, 1, []core.Cost{1, 10}, []core.Cost{10, 1})
	a, _ := core.FromMachineOf(tc, []int{0, 0, -1, -1, -1}[:2])
	greedyLoadBalancing(a, tc, 0, 1)
	// job 0 (ratio 0.1) placed first on the emptier machine; job 1
	// (ratio 10) goes to whichever machine has smaller load then.
	if a.MachineOf(0) == a.MachineOf(1) {
		t.Fatalf("both jobs on one machine: %s", a)
	}
}

func TestCLB2CPairCrossClusterOnly(t *testing.T) {
	tc, _ := core.NewTwoCluster(2, 2, []core.Cost{1}, []core.Cost{1})
	a := core.RoundRobin(tc)
	defer func() {
		if recover() == nil {
			t.Fatal("same-cluster CLB2CPair did not panic")
		}
	}()
	clb2cPair(a, tc, 0, 1)
}

func TestCLB2CPairOrientation(t *testing.T) {
	// Passing the machines in either order must give the same result.
	gen := rng.New(7)
	tc := workload.UniformTwoCluster(gen, 1, 1, 12, 1, 40)
	a := core.RoundRobin(tc)
	b := a.Clone()
	clb2cPair(a, tc, 0, 1)
	clb2cPair(b, tc, 1, 0)
	if !a.Equal(b) {
		t.Fatal("CLB2CPair depends on argument order")
	}
}

func TestCLB2CPairMovesBiasedJobs(t *testing.T) {
	// Jobs heavily biased toward cluster 1 but parked on a cluster-0
	// machine must migrate when that machine balances with a cluster-1
	// machine.
	tc, _ := core.NewTwoCluster(1, 1,
		[]core.Cost{100, 100, 1},
		[]core.Cost{1, 1, 100})
	a, _ := core.FromMachineOf(tc, []int{0, 0, 1})
	clb2cPair(a, tc, 0, 1)
	if a.MachineOf(0) != 1 || a.MachineOf(1) != 1 || a.MachineOf(2) != 0 {
		t.Fatalf("biased jobs not exchanged: %s", a)
	}
}

func TestCLB2CPairIdempotent(t *testing.T) {
	gen := rng.New(8)
	for iter := 0; iter < 50; iter++ {
		tc := workload.UniformTwoCluster(gen, 2, 2, 14, 1, 30)
		a := core.RoundRobin(tc)
		clb2cPair(a, tc, 1, 3)
		b := a.Clone()
		clb2cPair(b, tc, 1, 3)
		if !a.Equal(b) {
			t.Fatal("CLB2CPair is not idempotent")
		}
	}
}

func TestPairwiseTrapIsPairwiseStable(t *testing.T) {
	// Proposition 2: on the Table II instance, every pair of machines is
	// already optimally balanced in the trap assignment — BasicGreedy
	// over any pair must not lower the pair's local makespan below its
	// current value. (BasicGreedy may produce an equally-bad different
	// split on fully unrelated costs; the point of the proposition is
	// that no pairwise move reaches the global optimum of 1.)
	d, trap := workload.PairwiseTrap(10)
	for m1 := 0; m1 < 3; m1++ {
		for m2 := m1 + 1; m2 < 3; m2++ {
			b := trap.Clone()
			// Pairwise-optimal rebalancing of the pair: exhaustive over
			// the union (at most 2 jobs here).
			jobs := Union(b, m1, m2)
			bestPair := exhaustivePair(b, d, m1, m2, jobs)
			localBefore := maxLoad(trap, m1, m2)
			if bestPair < localBefore {
				t.Fatalf("pair (%d,%d) could improve from %d to %d — trap not stable",
					m1, m2, localBefore, bestPair)
			}
		}
	}
}

func maxLoad(a *core.Assignment, m1, m2 int) core.Cost {
	l1, l2 := a.Load(m1), a.Load(m2)
	if l1 > l2 {
		return l1
	}
	return l2
}

// exhaustivePair returns the best achievable max-load of the pair over all
// 2^|jobs| splits of the pooled jobs.
func exhaustivePair(a *core.Assignment, m core.CostModel, m1, m2 int, jobs []int) core.Cost {
	best := core.Cost(1) << 62
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
	return best
}
