package protocol

import (
	"fmt"

	"hetlb/internal/core"
)

// The proof of Theorem 7 reads two certificates off a stable DLB2C
// schedule, and that of Theorem 5 one off a stable MJTB schedule; each is a
// necessary condition of stability, so a schedule that fails one is
// unstable without a pair being split. They are O(n) (O(m·k + n) for
// Theorem 5) here, so they can be checked at the scale the engines run, not
// only on the small instances the exact solver handles.

// TypeOptimal checks the certificate of a stable MJTB schedule on a
// placement of a typed model: every job type is placed optimally on its
// own. Let the jobs of a type cost c_i on machine i, and let n_i of them be
// on machine i. If max_i n_i·c_i ≤ min_j (n_j+1)·c_j, no placement of the
// type's jobs has a smaller makespan: one that had would put more than n_j
// of them on some machine j, which then costs at least (n_j+1)·c_j. A
// stable MJTB schedule meets the condition for every type, since each
// pair's split of a type is BasicGreedy's optimal two-machine split
// (Lemma 3); summed over the k types it gives Theorem 5's k·OPT. A machine
// that cannot run a type (priced core.Infinite) is skipped as j, since one
// more job there costs more than any placement on the others; a job of the
// type placed on it counts as core.Infinite, so the check fails unless no
// machine can run the type. Unassigned jobs are ignored. It runs in
// O(m·k + n) and returns nil, or an error naming the type and the two
// machines.
func TypeOptimal(ty *core.Typed, a *core.Assignment) error {
	m, k := ty.NumMachines(), ty.NumTypes()
	count := make([]core.Cost, m*k)
	for j := 0; j < ty.NumJobs(); j++ {
		if i := a.MachineOf(j); i != -1 {
			count[i*k+ty.TypeOf(j)]++
		}
	}
	for t := 0; t < k; t++ {
		top, bottom := -1, -1
		var most, least core.Cost
		for i := 0; i < m; i++ {
			n, c := count[i*k+t], ty.TypeCosts(i)[t]
			load := n * c
			if c >= core.Infinite {
				load = min(n, 1) * core.Infinite
			} else if bottom == -1 || (n+1)*c < least {
				bottom, least = i, (n+1)*c
			}
			if top == -1 || load > most {
				top, most = i, load
			}
		}
		if bottom != -1 && most > least {
			return fmt.Errorf("protocol: type %d is not placed optimally: machine %d holds %d of its jobs at cost %d, and machine %d would hold one more at cost %d",
				t, top, count[top*k+t], most, bottom, least)
		}
	}
	return nil
}

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
