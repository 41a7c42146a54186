package protocol

import (
	"sort"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// LoadedSplitter is implemented by protocols whose kernels can account for
// pre-existing non-movable load on each machine — in the dynamic execution
// simulator this is the remaining time of the currently running,
// non-preemptible job. SplitLoaded must reduce to Split when both bases are
// zero, up to the order of each side: the loaded forms return the sides in
// placement order, which the simulator runs as each machine's queue.
type LoadedSplitter interface {
	SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) (toI, toJ []int)
}

// SplitLoaded implements LoadedSplitter for OJTB.
func (p OJTB) SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) ([]int, []int) {
	return pairwise.SplitBasicGreedyLoaded(p.Model, i, j, baseI, baseJ, jobs)
}

// SplitLoaded implements LoadedSplitter for SameCost.
func (p SameCost) SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) ([]int, []int) {
	return pairwise.SplitSameCostLoaded(p.Model, i, j, baseI, baseJ, jobs)
}

// SplitLoaded implements LoadedSplitter for MJTB: each type is balanced
// with the loads accumulated by the previous types plus the bases.
func (p MJTB) SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) ([]int, []int) {
	byType := make([][]int, p.Model.NumTypes())
	for _, job := range jobs {
		t := p.Model.TypeOf(job)
		byType[t] = append(byType[t], job)
	}
	var toI, toJ []int
	lI, lJ := baseI, baseJ
	for t := 0; t < p.Model.NumTypes(); t++ {
		if len(byType[t]) == 0 {
			continue
		}
		a, b := pairwise.SplitBasicGreedyLoaded(p.Model, i, j, lI, lJ, byType[t])
		for _, job := range a {
			lI += p.Model.Cost(i, job)
		}
		for _, job := range b {
			lJ += p.Model.Cost(j, job)
		}
		toI = append(toI, a...)
		toJ = append(toJ, b...)
	}
	return toI, toJ
}

// SplitLoaded implements LoadedSplitter for DLB2C.
func (p DLB2C) SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) ([]int, []int) {
	if p.Model.ClusterOf(i) == p.Model.ClusterOf(j) {
		return pairwise.SplitGreedyLoadBalancingLoaded(p.Model, i, j, baseI, baseJ, jobs)
	}
	return pairwise.SplitCLB2CLoaded(p.Model, i, j, baseI, baseJ, jobs)
}

// SplitLoaded implements LoadedSplitter for DLBKC.
func (p DLBKC) SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) ([]int, []int) {
	a := p.Model.ClusterOf(i)
	b := p.Model.ClusterOf(j)
	if a == b {
		return p.splitSameClusterLoaded(a, i, j, baseI, baseJ, jobs)
	}
	view := p.Model.PairView(a, b)
	return pairwise.SplitCLB2CLoaded(view, i, j, baseI, baseJ, jobs)
}

func (p DLBKC) splitSameClusterLoaded(cluster, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = p.splitSameClusterLoaded(cluster, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	sorted := append([]int(nil), jobs...)
	sort.Slice(sorted, func(x, y int) bool {
		cx := p.Model.ClusterCost(cluster, sorted[x])
		cy := p.Model.ClusterCost(cluster, sorted[y])
		if cx != cy {
			return cx > cy
		}
		return sorted[x] < sorted[y]
	})
	l1, l2 := base1, base2
	for _, j := range sorted {
		c := p.Model.ClusterCost(cluster, j)
		if l1 <= l2 {
			to1 = append(to1, j)
			l1 += c
		} else {
			to2 = append(to2, j)
			l2 += c
		}
	}
	return to1, to2
}

var (
	_ LoadedSplitter = OJTB{}
	_ LoadedSplitter = SameCost{}
	_ LoadedSplitter = MJTB{}
	_ LoadedSplitter = DLB2C{}
	_ LoadedSplitter = DLBKC{}
)
