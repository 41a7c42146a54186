package core

import "sort"

// LowerBound returns a generic lower bound on OPT for any unrelated
// instance: the maximum of
//
//   - the largest over jobs of the cheapest execution time of that job
//     (some machine has to run each job), and
//   - the total work when every job runs on its cheapest machine, divided by
//     the number of machines (average-load argument), rounded up.
//
// The bound is valid for every instance and tight on many structured ones;
// the exact solver uses it for pruning and the tests use it to sanity-check
// approximation ratios.
func LowerBound(m CostModel) Cost {
	var maxMin Cost
	var sumMin Cost
	for j := 0; j < m.NumJobs(); j++ {
		c, _ := MinCost(m, j)
		if c > maxMin {
			maxMin = c
		}
		sumMin += c
	}
	mm := Cost(m.NumMachines())
	avg := (sumMin + mm - 1) / mm
	if avg > maxMin {
		return avg
	}
	return maxMin
}

// IdenticalLowerBound specializes the bound for identical machines where it
// is simply max(ceil(ΣP/m), max job size).
func IdenticalLowerBound(id *Identical) Cost {
	var sum, max Cost
	for j := 0; j < id.NumJobs(); j++ {
		s := id.Size(j)
		sum += s
		if s > max {
			max = s
		}
	}
	m := Cost(id.NumMachines())
	avg := (sum + m - 1) / m
	if avg > max {
		return avg
	}
	return max
}

// TwoClusterFractionalLB returns a lower bound on OPT for a two-cluster
// instance obtained by relaxing the problem twice: machines within a cluster
// are pooled (each cluster is one big machine with |Mc| units of speed) and
// one job may be split fractionally between the clusters.
//
// Under that relaxation the optimal split assigns a prefix of the jobs
// sorted by cost ratio p0/p1 to cluster 0 — exactly the structure CLB2C
// exploits — so the bound is computed by a single scan over the sorted jobs.
// The result is returned in fractional time units.
func TwoClusterFractionalLB(tc Clustered) float64 {
	n := tc.NumJobs()
	if n == 0 {
		return 0
	}
	m1 := float64(tc.ClusterSize(0))
	m2 := float64(tc.ClusterSize(1))

	jobs := make([]int, n)
	for j := range jobs {
		jobs[j] = j
	}
	// Sort by increasing p0/p1, integer-exact (CompareRatios: a job free on
	// both clusters is ratio 1/1, which keeps the order transitive).
	sort.Slice(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		return CompareRatios(tc.ClusterCost(0, ja), tc.ClusterCost(1, ja), tc.ClusterCost(0, jb), tc.ClusterCost(1, jb)) < 0
	})

	// suffix1[k] = total cluster-1 work of jobs[k:].
	suffix1 := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		suffix1[k] = suffix1[k+1] + float64(tc.ClusterCost(1, jobs[k]))
	}

	best := -1.0
	w0 := 0.0
	for k := 0; k <= n; k++ {
		// jobs[:k] on cluster 0, jobs[k:] on cluster 1, plus possibly a
		// fractional part of the boundary job.
		a := w0 / m1
		b := suffix1[k] / m2
		v := a
		if b > v {
			v = b
		}
		// Allow splitting the boundary job between the clusters: the
		// fractional optimum equalizes the two cluster finish times if
		// that falls between the k and k+1 split points.
		if k < n {
			p0 := float64(tc.ClusterCost(0, jobs[k]))
			p1 := float64(tc.ClusterCost(1, jobs[k]))
			// Fraction x of job k on cluster 0: load0 = (w0+x*p0)/m1,
			// load1 = (suffix1[k+1]+(1-x)*p1)/m2; minimize the max over
			// x in [0,1]. The max is minimized either at a boundary
			// (covered by the integer scan) or where the loads equalize.
			den := p0/m1 + p1/m2
			if den > 0 {
				x := (suffix1[k+1]/m2 + p1/m2 - w0/m1) / den
				if x > 0 && x < 1 {
					eq := (w0 + x*p0) / m1
					if best < 0 || eq < best {
						best = eq
					}
				}
			}
			w0 += p0
		}
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

// PMax returns the largest finite processing time appearing in the model,
// the p_max of Theorem 10.
func PMax(m CostModel) Cost {
	var max Cost
	for i := 0; i < m.NumMachines(); i++ {
		for j := 0; j < m.NumJobs(); j++ {
			if c := m.Cost(i, j); c < Infinite && c > max {
				max = c
			}
		}
	}
	return max
}

// HypothesisHolds reports whether the Section VI hypothesis
// "every processing time is at most the optimal makespan" holds for the
// given model and a value opt (usually a lower bound; using a lower bound
// makes the check conservative).
func HypothesisHolds(m CostModel, opt Cost) bool {
	for i := 0; i < m.NumMachines(); i++ {
		for j := 0; j < m.NumJobs(); j++ {
			if m.Cost(i, j) > opt {
				return false
			}
		}
	}
	return true
}
