package protocol

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// equationThreeHolds is the pairwise oracle of
// TestStableDLB2CSatisfiesEquationThree: every job on cluster 0 against
// every job on cluster 1, cross-multiplied.
func equationThreeHolds(tc *core.TwoCluster, a *core.Assignment) bool {
	var on0, on1 []int
	for j := 0; j < tc.NumJobs(); j++ {
		if i := a.MachineOf(j); i != -1 && tc.ClusterOf(i) == 0 {
			on0 = append(on0, j)
		} else if i != -1 {
			on1 = append(on1, j)
		}
	}
	for _, j0 := range on0 {
		for _, j1 := range on1 {
			if tc.ClusterCost(0, j0)*tc.ClusterCost(1, j1) > tc.ClusterCost(0, j1)*tc.ClusterCost(1, j0) {
				return false
			}
		}
	}
	return true
}

// imbalanceBounded is the pairwise oracle of
// TestStableDLB2CWithinClusterImbalanceBounded: every same-cluster pair
// differs by at most the largest job on its more loaded machine.
func imbalanceBounded(tc *core.TwoCluster, a *core.Assignment) bool {
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
			var pmax core.Cost
			for j := 0; j < tc.NumJobs(); j++ {
				if a.MachineOf(j) == hi {
					pmax = max(pmax, tc.Cost(hi, j))
				}
			}
			if a.Load(hi)-a.Load(lo) > pmax {
				return false
			}
		}
	}
	return true
}

// TestCertificatesMatchPairwiseOracles runs the O(n) library checks
// EquationThree and ClusterImbalance on the instances of the two pairwise
// oracle tests (the same generator seeds and draws), at the round-robin
// start, where they often fail, and at every stable state the drive
// reaches, where they must hold. Each must agree with its pairwise oracle
// at every placement, and both sides of the agreement must occur.
func TestCertificatesMatchPairwiseOracles(t *testing.T) {
	type tally struct{ holds, fails, stable int }
	check := func(name string, lib func(*core.TwoCluster, *core.Assignment) error, oracle func(*core.TwoCluster, *core.Assignment) bool,
		tc *core.TwoCluster, a *core.Assignment, tl *tally) {
		t.Helper()
		err := lib(tc, a)
		if want := oracle(tc, a); (err == nil) != want {
			t.Fatalf("%s: library check says %v, pairwise oracle holds=%v\n%s", name, err, want, a)
		}
		if err == nil {
			tl.holds++
		} else {
			tl.fails++
		}
	}
	var eq, imb tally
	gen := rng.New(31)
	for iter, verified := 0, 0; iter < 300 && verified < 25; iter++ {
		tc := workload.UniformTwoCluster(gen, 1+gen.Intn(2), 1+gen.Intn(2), 4+gen.Intn(8), 1, 12)
		a := core.RoundRobin(tc)
		check("EquationThree at the start", EquationThree, equationThreeHolds, tc, a, &eq)
		if !drive(DLB2C{Model: tc}, a, gen, 3000) {
			continue
		}
		verified++
		eq.stable++
		check("EquationThree at a stable state", EquationThree, equationThreeHolds, tc, a, &eq)
		if err := EquationThree(tc, a); err != nil {
			t.Fatalf("stable state: %v", err)
		}
	}
	gen = rng.New(32)
	for iter, verified := 0, 0; iter < 300 && verified < 15; iter++ {
		tc := workload.UniformTwoCluster(gen, 2+gen.Intn(2), 1, 6+gen.Intn(6), 1, 12)
		a := core.RoundRobin(tc)
		check("ClusterImbalance at the start", ClusterImbalance, imbalanceBounded, tc, a, &imb)
		if !drive(DLB2C{Model: tc}, a, gen, 4000) {
			continue
		}
		verified++
		imb.stable++
		check("ClusterImbalance at a stable state", ClusterImbalance, imbalanceBounded, tc, a, &imb)
		if err := ClusterImbalance(tc, a); err != nil {
			t.Fatalf("stable state: %v", err)
		}
	}
	for name, tl := range map[string]tally{"EquationThree": eq, "ClusterImbalance": imb} {
		if tl.stable < 5 || tl.fails == 0 {
			t.Fatalf("%s: %d stable states, %d placements failing: the agreement was not exercised both ways", name, tl.stable, tl.fails)
		}
	}
	t.Logf("EquationThree %+v, ClusterImbalance %+v", eq, imb)
}

// TestCertificatesRejectViolations pins each check on a hand-built
// violation, and on placements with unassigned jobs.
func TestCertificatesRejectViolations(t *testing.T) {
	// Job 0 has ratio 1/4, job 1 ratio 4/1: placing job 1 on cluster 0 and
	// job 0 on cluster 1 inverts Equation (3).
	tc, _ := core.NewTwoCluster(2, 1, []core.Cost{1, 4, 3}, []core.Cost{4, 1, 3})
	bad, _ := core.FromMachineOf(tc, []int{2, 0, 1})
	if err := EquationThree(tc, bad); err == nil {
		t.Fatal("EquationThree accepted job 1 (ratio 4) on cluster 0 with job 0 (ratio 1/4) on cluster 1")
	}
	good, _ := core.FromMachineOf(tc, []int{0, 2, -1})
	if err := EquationThree(tc, good); err != nil {
		t.Fatalf("EquationThree on a placement in ratio order: %v", err)
	}
	// Machines 0 and 1 share cluster 0; loads 1+4+3 = 8 against 0 exceed
	// machine 0's largest job, 4.
	heavy, _ := core.FromMachineOf(tc, []int{0, 0, 0})
	if err := ClusterImbalance(tc, heavy); err == nil {
		t.Fatal("ClusterImbalance accepted loads 8 and 0 on one cluster with largest job 4")
	}
	split, _ := core.FromMachineOf(tc, []int{0, 1, -1})
	if err := ClusterImbalance(tc, split); err != nil {
		t.Fatalf("ClusterImbalance on loads 1 and 4, largest jobs 1 and 4: %v", err)
	}
}
