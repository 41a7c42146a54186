package protocol

import (
	"fmt"

	"hetlb/internal/core"
)

// The proof of Theorem 7 reads two certificates off a stable DLB2C
// schedule; both are necessary conditions of stability, so a schedule that
// fails one is unstable without a pair being split. They are O(n) here, so
// they can be checked at the scale the engines run, not only on the small
// instances the exact solver handles.

// EquationThree checks Equation (3) of the paper on a placement of a
// two-cluster model: no job on cluster 0 has a larger p0/p1 ratio than any
// job on cluster 1, or a cross-cluster CLB2C step would swap them. It walks
// the model's cached ratio order once: the last job of cluster 0 in that
// order has the largest ratio there, the first job of cluster 1 the
// smallest, and the two are compared with core.CompareRatios. Unassigned
// jobs are ignored. It returns nil, or an error naming the two jobs.
func EquationThree(tc *core.TwoCluster, a *core.Assignment) error {
	order := tc.RatioOrder()
	last0, first1 := -1, -1
	for k, j := range order {
		i := a.MachineOf(int(j))
		switch {
		case i == -1:
		case tc.ClusterOf(i) == 0:
			last0 = k
		case first1 == -1:
			first1 = k
		}
	}
	if last0 < first1 || first1 == -1 {
		return nil
	}
	j0, j1 := int(order[last0]), int(order[first1])
	if core.CompareRatios(tc.ClusterCost(0, j0), tc.ClusterCost(1, j0), tc.ClusterCost(0, j1), tc.ClusterCost(1, j1)) > 0 {
		return fmt.Errorf("protocol: Equation (3) fails: job %d on cluster 0 has a larger p0/p1 ratio than job %d on cluster 1", j0, j1)
	}
	return nil
}

// ClusterImbalance checks the second certificate of a stable DLB2C
// schedule: two machines of one cluster differ in load by at most the
// largest job on the more loaded one, or Greedy Load Balancing would move
// one. The worst partner of a machine is its cluster's least-loaded one, so
// in O(n+m) it checks that every machine's load exceeds its cluster's least
// load by at most its own largest job. It returns nil, or an error naming
// the two machines.
func ClusterImbalance(tc *core.TwoCluster, a *core.Assignment) error {
	m := tc.NumMachines()
	largest := make([]core.Cost, m)
	for j := 0; j < tc.NumJobs(); j++ {
		if i := a.MachineOf(j); i != -1 {
			largest[i] = max(largest[i], tc.Cost(i, j))
		}
	}
	least := [2]int{-1, -1}
	for i := 0; i < m; i++ {
		if c := tc.ClusterOf(i); least[c] == -1 || a.Load(i) < a.Load(least[c]) {
			least[c] = i
		}
	}
	for i := 0; i < m; i++ {
		lo := least[tc.ClusterOf(i)]
		if d := a.Load(i) - a.Load(lo); d > largest[i] {
			return fmt.Errorf("protocol: machine %d is %d above machine %d of its cluster, more than its largest job %d", i, d, lo, largest[i])
		}
	}
	return nil
}
