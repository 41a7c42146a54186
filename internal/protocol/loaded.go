package protocol

import (
	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// LoadedSplitter is implemented by protocols whose kernels can account for
// pre-existing non-movable load on each machine — in the dynamic execution
// simulator this is the remaining time of the currently running,
// non-preemptible job. SplitLoaded must reduce to SplitScratch when both
// bases are zero, up to the order of each side: the loaded forms return the
// sides in placement order, which the simulator runs as each machine's
// queue.
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

// SplitLoaded implements LoadedSplitter for MJTB: as Algorithm 4 balances
// each type on its own, each type is balanced from the two bases.
func (p MJTB) SplitLoaded(i, j int, baseI, baseJ core.Cost, jobs []int) ([]int, []int) {
	byType := make([][]int, p.Model.NumTypes())
	for _, job := range jobs {
		t := p.Model.TypeOf(job)
		byType[t] = append(byType[t], job)
	}
	var toI, toJ []int
	for _, typeJobs := range byType {
		a, b := pairwise.SplitBasicGreedyLoaded(p.Model, i, j, baseI, baseJ, typeJobs)
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
		return pairwise.SplitLargestFirstLoaded(p.Model, i, j, baseI, baseJ, jobs)
	}
	view := p.Model.PairView(a, b)
	return pairwise.SplitCLB2CLoaded(view, i, j, baseI, baseJ, jobs)
}

var (
	_ LoadedSplitter = OJTB{}
	_ LoadedSplitter = SameCost{}
	_ LoadedSplitter = MJTB{}
	_ LoadedSplitter = DLB2C{}
	_ LoadedSplitter = DLBKC{}
)
