package protocol

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// drive runs random pairwise steps of the protocol until the assignment is
// stable or maxSteps is exhausted; it reports whether stability was reached.
func drive(p Protocol, a *core.Assignment, gen *rng.RNG, maxSteps int) bool {
	m := a.Model().NumMachines()
	for s := 0; s < maxSteps; s++ {
		i := gen.Intn(m)
		j := gen.Pick(m, i)
		Balance(p, a, i, j)
		if s%25 == 24 && Stable(p, a) {
			return true
		}
	}
	return Stable(p, a)
}

func TestOJTBConvergesToOptimalOneType(t *testing.T) {
	// Lemma 4: with a single job type OJTB converges to an optimal
	// distribution. Random machine costs (typed model, k=1), random
	// initial distribution.
	gen := rng.New(1)
	for iter := 0; iter < 40; iter++ {
		m := 2 + gen.Intn(3)
		n := 1 + gen.Intn(9)
		p := make([][]core.Cost, m)
		for i := range p {
			p[i] = []core.Cost{gen.IntRange(1, 9)}
		}
		ty, err := core.NewTyped(p, make([]int, n))
		if err != nil {
			t.Fatal(err)
		}
		a := core.NewAssignment(ty)
		for j := 0; j < n; j++ {
			a.Assign(j, gen.Intn(m))
		}
		if !drive(OJTB{Model: ty}, a, gen, 4000) {
			t.Fatalf("OJTB did not stabilize (m=%d n=%d)", m, n)
		}
		opt := exact.Solve(ty).Opt
		if a.Makespan() != opt {
			t.Fatalf("OJTB stabilized at %d, OPT = %d (m=%d n=%d)", a.Makespan(), opt, m, n)
		}
	}
}

func TestOJTBMakespanNonIncreasingOneType(t *testing.T) {
	// The key step of Lemma 4: each optimal pairwise rebalancing never
	// increases the global makespan when all jobs are of one type.
	gen := rng.New(2)
	for iter := 0; iter < 30; iter++ {
		m := 2 + gen.Intn(4)
		n := 1 + gen.Intn(12)
		p := make([][]core.Cost, m)
		for i := range p {
			p[i] = []core.Cost{gen.IntRange(1, 9)}
		}
		ty, _ := core.NewTyped(p, make([]int, n))
		a := core.NewAssignment(ty)
		for j := 0; j < n; j++ {
			a.Assign(j, gen.Intn(m))
		}
		prev := a.Makespan()
		for s := 0; s < 200; s++ {
			i := gen.Intn(m)
			j := gen.Pick(m, i)
			Balance(OJTB{Model: ty}, a, i, j)
			if cur := a.Makespan(); cur > prev {
				t.Fatalf("makespan increased %d -> %d at step %d", prev, cur, s)
			} else {
				prev = cur
			}
		}
	}
}

func TestMJTBKApproximation(t *testing.T) {
	// Theorem 5: MJTB converges to a k-approximation with k job types.
	gen := rng.New(3)
	for iter := 0; iter < 25; iter++ {
		m := 2 + gen.Intn(2)
		k := 1 + gen.Intn(3)
		n := k + gen.Intn(7)
		ty := workload.UniformTyped(gen, m, n, k, 1, 9)
		a := core.NewAssignment(ty)
		for j := 0; j < n; j++ {
			a.Assign(j, gen.Intn(m))
		}
		proto := MJTB{Model: ty}
		if !drive(proto, a, gen, 6000) {
			t.Fatalf("MJTB did not stabilize (m=%d n=%d k=%d)", m, n, k)
		}
		res := exact.Solve(ty)
		if !res.Proven {
			continue
		}
		if a.Makespan() > core.Cost(k)*res.Opt {
			t.Fatalf("MJTB %d > %d·OPT (OPT=%d, m=%d n=%d)", a.Makespan(), k, res.Opt, m, n)
		}
	}
}

func TestMJTBEachTypeOptimallySpread(t *testing.T) {
	// Stronger intermediate property used by the Theorem 5 proof: at a
	// stable state, each type's sub-schedule is optimal for that type
	// alone... per pair. Verify the weaker per-pair form: for every pair
	// and type, re-balancing that type's jobs changes nothing.
	gen := rng.New(4)
	ty := workload.UniformTyped(gen, 3, 9, 2, 1, 9)
	a := core.NewAssignment(ty)
	for j := 0; j < 9; j++ {
		a.Assign(j, gen.Intn(3))
	}
	proto := MJTB{Model: ty}
	if !drive(proto, a, gen, 8000) {
		t.Skip("MJTB did not stabilize on this instance within the budget")
	}
	if i, j := UnstablePair(proto, a); i != -1 {
		t.Fatalf("stable state has unstable pair (%d, %d)", i, j)
	}
}

func TestDLB2CStableImpliesTwoApprox(t *testing.T) {
	// Theorem 7: if DLB2C reaches a stable schedule (and the hypothesis
	// p_{i,j} ≤ OPT holds), that schedule is a 2-approximation.
	gen := rng.New(5)
	checked := 0
	for iter := 0; iter < 200 && checked < 40; iter++ {
		m1 := 1 + gen.Intn(2)
		m2 := 1 + gen.Intn(2)
		n := 4 + gen.Intn(6)
		tc := workload.UniformTwoCluster(gen, m1, m2, n, 1, 10)
		a := core.RoundRobin(tc)
		proto := DLB2C{Model: tc}
		if !drive(proto, a, gen, 3000) {
			continue // non-convergence is allowed (Proposition 8)
		}
		res := exact.Solve(tc)
		if !res.Proven || !core.HypothesisHolds(tc, res.Opt) {
			continue
		}
		checked++
		if a.Makespan() > 2*res.Opt {
			t.Fatalf("stable DLB2C %d > 2·OPT (OPT=%d, m1=%d m2=%d n=%d)",
				a.Makespan(), res.Opt, m1, m2, n)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d stable instances checked; test too weak", checked)
	}
}

func TestDLB2CPreservesJobs(t *testing.T) {
	gen := rng.New(6)
	tc := workload.UniformTwoCluster(gen, 3, 2, 30, 1, 100)
	a := core.RoundRobin(tc)
	proto := DLB2C{Model: tc}
	for s := 0; s < 500; s++ {
		i := gen.Intn(5)
		j := gen.Pick(5, i)
		Balance(proto, a, i, j)
	}
	if !a.Complete() {
		t.Fatal("DLB2C lost jobs")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSameCostReachesNearBalance(t *testing.T) {
	// Homogeneous cluster: after enough random pairwise steps the
	// makespan should be within the Theorem 10 style bound of the mean —
	// in practice much closer (Figure 2); we assert the loose bound.
	gen := rng.New(7)
	id := workload.UniformIdentical(gen, 8, 64, 1, 100)
	a := core.AllOnMachine(id, 0)
	proto := SameCost{Model: id}
	for s := 0; s < 4000; s++ {
		i := gen.Intn(8)
		j := gen.Pick(8, i)
		Balance(proto, a, i, j)
	}
	var sum, pmax core.Cost
	for j := 0; j < 64; j++ {
		s := id.Size(j)
		sum += s
		if s > pmax {
			pmax = s
		}
	}
	bound := sum/8 + (8-1)*pmax/2 + 1
	if a.Makespan() > bound {
		t.Fatalf("makespan %d exceeds Theorem 10 bound %d", a.Makespan(), bound)
	}
}

func TestStableDetectsFixedPoint(t *testing.T) {
	// A single machine holding everything with a second empty identical
	// machine is unstable; after one balancing it becomes stable for m=2.
	id, _ := core.NewIdentical(2, []core.Cost{4, 4})
	a := core.AllOnMachine(id, 0)
	if Stable(SameCost{Model: id}, a) {
		t.Fatal("4+4 on one machine reported stable")
	}
	Balance(SameCost{Model: id}, a, 0, 1)
	if !Stable(SameCost{Model: id}, a) {
		t.Fatalf("balanced 4|4 not stable: %s", a)
	}
	if i, j := UnstablePair(SameCost{Model: id}, a); i != -1 || j != -1 {
		t.Fatal("UnstablePair found a pair in a stable state")
	}
}

func TestCycleInstanceNeverConverges(t *testing.T) {
	// Proposition 8: the workload.CycleInstance admits no reachable
	// stable schedule.
	tc, start := workload.CycleInstance()
	r := Explore(DLB2C{Model: tc}, start, 10000)
	if r.Truncated {
		t.Fatal("exploration truncated; raise the cap")
	}
	if !r.ProvesNonConvergence() {
		t.Fatalf("reachable=%d stable=%d: instance no longer proves Proposition 8",
			r.States, r.StableStates)
	}
	cyc := FindCycle(DLB2C{Model: tc}, start, 10000)
	if len(cyc) < 3 {
		t.Fatalf("no explicit cycle found (len=%d)", len(cyc))
	}
	if !cyc[0].Equal(cyc[len(cyc)-1]) {
		t.Fatal("cycle does not close")
	}
	// Each consecutive pair must be one balancing step apart.
	m := tc.NumMachines()
	for k := 0; k+1 < len(cyc); k++ {
		found := false
		for i := 0; i < m && !found; i++ {
			for j := i + 1; j < m && !found; j++ {
				b := cyc[k].Clone()
				Balance(DLB2C{Model: tc}, b, i, j)
				found = b.Equal(cyc[k+1])
			}
		}
		if !found {
			t.Fatalf("cycle edge %d is not a single balancing step", k)
		}
	}
}

func TestExploreCountsStableStates(t *testing.T) {
	// Tiny convergent system: reachable set must contain at least one
	// stable state.
	id, _ := core.NewIdentical(2, []core.Cost{2, 2})
	a := core.AllOnMachine(id, 0)
	r := Explore(SameCost{Model: id}, a, 100)
	if r.Truncated {
		t.Fatal("tiny exploration truncated")
	}
	if r.StableStates == 0 {
		t.Fatal("no stable state found for a trivially convergent system")
	}
	if r.MinMakespan != 2 || r.MaxMakespan != 4 {
		t.Fatalf("makespan range [%d, %d], want [2, 4]", r.MinMakespan, r.MaxMakespan)
	}
}

func TestExploreTruncation(t *testing.T) {
	gen := rng.New(8)
	tc := workload.UniformTwoCluster(gen, 3, 3, 16, 1, 50)
	a := core.RoundRobin(tc)
	r := Explore(DLB2C{Model: tc}, a, 5)
	if !r.Truncated {
		t.Fatal("expected truncation with a 5-state cap")
	}
	if r.States > 5 {
		t.Fatalf("visited %d states with cap 5", r.States)
	}
}

func TestProtocolNames(t *testing.T) {
	tc, _ := workload.CycleInstance()
	names := map[string]bool{
		OJTB{}.Name():           true,
		MJTB{}.Name():           true,
		DLB2C{Model: tc}.Name(): true,
		SameCost{}.Name():       true,
	}
	if len(names) != 4 {
		t.Fatal("protocol names are not distinct")
	}
}

func BenchmarkDLB2CStep(b *testing.B) {
	gen := rng.New(9)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	a := core.RoundRobin(tc)
	proto := DLB2C{Model: tc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1 := gen.Intn(96)
		m2 := gen.Pick(96, m1)
		Balance(proto, a, m1, m2)
	}
}

func BenchmarkStableCheck(b *testing.B) {
	gen := rng.New(10)
	tc := workload.UniformTwoCluster(gen, 8, 4, 96, 1, 1000)
	a := core.RoundRobin(tc)
	proto := DLB2C{Model: tc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stable(proto, a)
	}
}

func TestStableDLB2CSatisfiesEquationThree(t *testing.T) {
	// Deep validation of the Theorem 7 proof structure: at a stable
	// schedule, Equation (3) of the paper holds — every job placed on
	// cluster 0 has a cost ratio p0/p1 at most that of every job placed
	// on cluster 1 (otherwise some cross-cluster CLB2C exchange would
	// swap them).
	gen := rng.New(31)
	verified := 0
	for iter := 0; iter < 300 && verified < 25; iter++ {
		tc := workload.UniformTwoCluster(gen, 1+gen.Intn(2), 1+gen.Intn(2), 4+gen.Intn(8), 1, 12)
		a := core.RoundRobin(tc)
		proto := DLB2C{Model: tc}
		if !drive(proto, a, gen, 3000) {
			continue
		}
		verified++
		// Collect jobs by cluster of their machine.
		var on0, on1 []int
		for j := 0; j < tc.NumJobs(); j++ {
			if tc.ClusterOf(a.MachineOf(j)) == 0 {
				on0 = append(on0, j)
			} else {
				on1 = append(on1, j)
			}
		}
		for _, j0 := range on0 {
			for _, j1 := range on1 {
				// p0(j0)/p1(j0) ≤ p0(j1)/p1(j1), cross-multiplied.
				lhs := tc.ClusterCost(0, j0) * tc.ClusterCost(1, j1)
				rhs := tc.ClusterCost(0, j1) * tc.ClusterCost(1, j0)
				if lhs > rhs {
					t.Fatalf("Equation 3 violated at a stable state: jobs %d (cluster 0) and %d (cluster 1)\n%s",
						j0, j1, a)
				}
			}
		}
	}
	if verified < 5 {
		t.Fatalf("only %d stable schedules verified", verified)
	}
}

func TestStableDLB2CWithinClusterImbalanceBounded(t *testing.T) {
	// Second structural property of the Theorem 7 machinery: at a stable
	// state, same-cluster machines differ by at most the largest job on
	// the more loaded machine (otherwise Greedy Load Balancing would
	// move one).
	gen := rng.New(32)
	verified := 0
	for iter := 0; iter < 300 && verified < 15; iter++ {
		tc := workload.UniformTwoCluster(gen, 2+gen.Intn(2), 1, 6+gen.Intn(6), 1, 12)
		a := core.RoundRobin(tc)
		proto := DLB2C{Model: tc}
		if !drive(proto, a, gen, 4000) {
			continue
		}
		verified++
		m := tc.NumMachines()
		for i := 0; i < m; i++ {
			for k := i + 1; k < m; k++ {
				if tc.ClusterOf(i) != tc.ClusterOf(k) {
					continue
				}
				hi, lo := i, k
				if a.Load(lo) > a.Load(hi) {
					hi, lo = lo, hi
				}
				d := a.Load(hi) - a.Load(lo)
				var pmax core.Cost
				for j := 0; j < tc.NumJobs(); j++ {
					if a.MachineOf(j) == hi {
						if c := tc.Cost(hi, j); c > pmax {
							pmax = c
						}
					}
				}
				if d > pmax {
					t.Fatalf("stable same-cluster imbalance %d exceeds heavy machine's pmax %d\n%s",
						d, pmax, a)
				}
			}
		}
	}
	if verified < 5 {
		t.Fatalf("only %d stable schedules verified", verified)
	}
}
