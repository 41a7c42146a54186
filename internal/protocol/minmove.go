package protocol

import (
	"slices"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// The paper's conclusion lists "minimizing the number of tasks exchanged
// (or network usage)" as future work: the kernels of Algorithms 2/5/6
// rebuild the pair's partition from scratch, so two machines that are
// already nearly balanced may still swap many job identities. The MinMove
// variants below reach the same imbalance class (pairwise imbalance at most
// the largest pooled job) while only *transferring* jobs from the heavier
// to the lighter machine — no gratuitous identity churn.
//
// Trade-off: the within-cluster ratio ordering of Algorithm 6 (needed by
// the Theorem 7 proof machinery) is not maintained, so the 2-approximation
// argument for stable states no longer applies verbatim; the ablation
// benchmarks quantify what this costs in schedule quality against what it
// saves in movement.

// transferSameCost moves jobs from the heavier side to the lighter side —
// choosing at each step the movable job that best halves the imbalance —
// until no single move reduces it. Both machines must price jobs
// identically (same cluster / identical machines). The final imbalance is
// at most the largest job on the heavier side, the same class as the
// rebuild kernels.
func transferSameCost(cost func(job int) core.Cost, onHeavy, onLight []int) (heavy, light []int) {
	return transferSameCostInPlace(cost, append([]int(nil), onHeavy...), append([]int(nil), onLight...))
}

// transferSameCostInPlace is transferSameCost on caller-owned slices: it
// mutates (and may grow) its arguments and returns them, possibly with their
// roles swapped. The scratch balancing path feeds it scratch-backed copies.
func transferSameCostInPlace(cost func(job int) core.Cost, heavy, light []int) ([]int, []int) {
	var lh, ll core.Cost
	for _, j := range heavy {
		lh += cost(j)
	}
	for _, j := range light {
		ll += cost(j)
	}
	for {
		if lh < ll {
			heavy, light = light, heavy
			lh, ll = ll, lh
		}
		d := lh - ll
		// Pick the movable job (size strictly between 0 and d) whose
		// size is closest to d/2: moving s changes the imbalance to
		// |d − 2s|.
		best := -1
		var bestGap core.Cost = 1 << 62
		for k, j := range heavy {
			s := cost(j)
			if s <= 0 || s >= d {
				continue
			}
			gap := d - 2*s
			if gap < 0 {
				gap = -gap
			}
			if gap < bestGap || (gap == bestGap && best >= 0 && heavy[k] < heavy[best]) {
				best, bestGap = k, gap
			}
		}
		if best == -1 {
			break
		}
		j := heavy[best]
		heavy = append(heavy[:best], heavy[best+1:]...)
		light = append(light, j)
		lh -= cost(j)
		ll += cost(j)
	}
	slices.Sort(heavy)
	slices.Sort(light)
	return heavy, light
}

// splitPlacedScratch is the scratch form of the same-cost placed split: it
// copies the sides into the To buffers, transfers in place, and leaves the
// (possibly grown) buffers on the scratch.
func splitPlacedScratch(s *pairwise.Scratch, cost func(job int) core.Cost, onI, onJ []int) (toI, toJ []int) {
	s.To1 = append(s.To1[:0], onI...)
	s.To2 = append(s.To2[:0], onJ...)
	var lI, lJ core.Cost
	for _, job := range s.To1 {
		lI += cost(job)
	}
	for _, job := range s.To2 {
		lJ += cost(job)
	}
	if lI >= lJ {
		toI, toJ = transferSameCostInPlace(cost, s.To1, s.To2)
	} else {
		toJ, toI = transferSameCostInPlace(cost, s.To2, s.To1)
	}
	s.To1, s.To2 = toI, toJ
	return toI, toJ
}

// SameCostMinMove is the movement-minimizing variant of SameCost.
type SameCostMinMove struct {
	// Model prices the jobs.
	Model core.CostModel
}

// Name implements Protocol.
func (SameCostMinMove) Name() string { return "SameCostMinMove" }

// Split implements Protocol (placement unknown: fall back to the rebuild
// kernel).
func (p SameCostMinMove) Split(i, j int, jobs []int) ([]int, []int) {
	return pairwise.SplitSameCost(p.Model, i, j, jobs)
}

// SplitScratch implements Protocol (placement unknown: fall back to the
// rebuild kernel).
func (p SameCostMinMove) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	s.To1, s.To2 = pairwise.AppendSplitSameCost(p.Model, i, j, jobs, s.To1[:0], s.To2[:0])
	return s.To1, s.To2
}

// Balance implements Protocol.
func (p SameCostMinMove) Balance(a *core.Assignment, i, j int) {
	onI, onJ := placedSides(a, i, j)
	toI, toJ := p.SplitPlaced(i, j, onI, onJ)
	pairwise.Apply(a, i, j, toI, toJ)
}

// BalanceScratch implements Protocol. The pair's sides come from the
// assignment's job index instead of an O(n) scan.
func (p SameCostMinMove) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	s.Side1 = a.AppendJobs(s.Side1[:0], i)
	s.Side2 = a.AppendJobs(s.Side2[:0], j)
	toI, toJ := p.BalanceSides(s, i, j, s.Side1, s.Side2)
	return pairwise.ApplyCount(a, i, j, toI, toJ)
}

// BalanceSides implements Protocol: SplitPlaced on scratch.
func (p SameCostMinMove) BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	cost := func(job int) core.Cost { return p.Model.Cost(i, job) }
	return splitPlacedScratch(s, cost, onI, onJ)
}

// SplitPlaced partitions the pair's jobs given their current sides, onI and
// onJ in increasing job order (not mutated), by transferring jobs from the
// heavier to the lighter side. It is the allocating form of BalanceSides.
func (p SameCostMinMove) SplitPlaced(i, j int, onI, onJ []int) ([]int, []int) {
	cost := func(job int) core.Cost { return p.Model.Cost(i, job) }
	var lI, lJ core.Cost
	for _, job := range onI {
		lI += cost(job)
	}
	for _, job := range onJ {
		lJ += cost(job)
	}
	if lI >= lJ {
		return transferSameCost(cost, onI, onJ)
	}
	toJ, toI := transferSameCost(cost, onJ, onI)
	return toI, toJ
}

// DLB2CMinMove is DLB2C with movement-minimizing same-cluster balancing;
// cross-cluster pairs still run CLB2C (affinity corrections inherently
// require movement).
type DLB2CMinMove struct {
	// Model is the clustered instance.
	Model core.Clustered
}

// Name implements Protocol.
func (DLB2CMinMove) Name() string { return "DLB2CMinMove" }

// Split implements Protocol.
func (p DLB2CMinMove) Split(i, j int, jobs []int) ([]int, []int) {
	return DLB2C{Model: p.Model}.Split(i, j, jobs)
}

// SplitScratch implements Protocol.
func (p DLB2CMinMove) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	return DLB2C{Model: p.Model}.SplitScratch(s, i, j, jobs)
}

// Balance implements Protocol.
func (p DLB2CMinMove) Balance(a *core.Assignment, i, j int) {
	onI, onJ := placedSides(a, i, j)
	toI, toJ := p.SplitPlaced(i, j, onI, onJ)
	pairwise.Apply(a, i, j, toI, toJ)
}

// BalanceScratch implements Protocol.
func (p DLB2CMinMove) BalanceScratch(s *pairwise.Scratch, a *core.Assignment, i, j int) int {
	s.Side1 = a.AppendJobs(s.Side1[:0], i)
	s.Side2 = a.AppendJobs(s.Side2[:0], j)
	toI, toJ := p.BalanceSides(s, i, j, s.Side1, s.Side2)
	return pairwise.ApplyCount(a, i, j, toI, toJ)
}

// BalanceSides implements Protocol: SplitPlaced on scratch.
func (p DLB2CMinMove) BalanceSides(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
	if p.Model.ClusterOf(i) != p.Model.ClusterOf(j) {
		s.Union = pairwise.MergeSortedInto(s.Union[:0], onI, onJ)
		return pairwise.SplitCLB2CScratch(s, p.Model, i, j, s.Union)
	}
	cluster := p.Model.ClusterOf(i)
	cost := func(job int) core.Cost { return p.Model.ClusterCost(cluster, job) }
	return splitPlacedScratch(s, cost, onI, onJ)
}

// SplitPlaced partitions the pair's jobs given their current sides, onI and
// onJ in increasing job order (not mutated): CLB2C across clusters, a
// transfer from the heavier to the lighter side within one. It is the
// allocating form of BalanceSides.
func (p DLB2CMinMove) SplitPlaced(i, j int, onI, onJ []int) ([]int, []int) {
	if p.Model.ClusterOf(i) != p.Model.ClusterOf(j) {
		union := mergeSortedInts(onI, onJ)
		return pairwise.SplitCLB2C(p.Model, i, j, union)
	}
	cluster := p.Model.ClusterOf(i)
	cost := func(job int) core.Cost { return p.Model.ClusterCost(cluster, job) }
	var lI, lJ core.Cost
	for _, job := range onI {
		lI += cost(job)
	}
	for _, job := range onJ {
		lJ += cost(job)
	}
	if lI >= lJ {
		return transferSameCost(cost, onI, onJ)
	}
	toJ, toI := transferSameCost(cost, onJ, onI)
	return toI, toJ
}

// placedSides returns the pair's jobs split by current machine, each in
// increasing job order.
func placedSides(a *core.Assignment, i, j int) (onI, onJ []int) {
	for job := 0; job < a.Model().NumJobs(); job++ {
		switch a.MachineOf(job) {
		case i:
			onI = append(onI, job)
		case j:
			onJ = append(onJ, job)
		}
	}
	return onI, onJ
}

func mergeSortedInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		if a[x] < b[y] {
			out = append(out, a[x])
			x++
		} else {
			out = append(out, b[y])
			y++
		}
	}
	out = append(out, a[x:]...)
	return append(out, b[y:]...)
}

var (
	_ Protocol = SameCostMinMove{}
	_ Protocol = DLB2CMinMove{}
)
