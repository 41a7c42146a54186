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

// transfer moves jobs from the heavier side to the lighter side — choosing
// at each step the movable job that best halves the imbalance — until no
// single move reduces it. Both machines must price jobs identically (same
// cluster / identical machines). The final imbalance is at most the largest
// job on the heavier side, the same class as the rebuild kernels. la and
// lb are the loads of a and b. It mutates (and may grow) a and b and
// returns them in argument order, each sorted ascending, with their loads.
func transfer(cost func(job int) core.Cost, a, b []int, la, lb core.Cost) (_, _ []int, _, _ core.Cost) {
	// heavy and light name the sides by their current loads; swapped
	// records that heavy is b.
	heavy, light, lh, ll := a, b, la, lb
	swapped := false
	for {
		if lh < ll {
			heavy, light = light, heavy
			lh, ll = ll, lh
			swapped = !swapped
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
	if swapped {
		return light, heavy, ll, lh
	}
	return heavy, light, lh, ll
}

// transferPlaced is the Transfer of the MinMove protocols on one cluster:
// it copies the sides into the To buffers, transfers from the heavier to the
// lighter side in place, leaves the (possibly grown) buffers and the
// transfer's loads on the scratch, and writes each side's arrivals with
// pairwise.AppendDiff. Both machines price a job at cost, so the loads are
// the machines' loads. It always transfers, so ok is true.
func transferPlaced(s *pairwise.Scratch, cost func(job int) core.Cost, onI, onJ []int) (toI, toJ []int, ok bool) {
	s.To1 = append(s.To1[:0], onI...)
	s.To2 = append(s.To2[:0], onJ...)
	var lI, lJ core.Cost
	for _, job := range s.To1 {
		lI += cost(job)
	}
	for _, job := range s.To2 {
		lJ += cost(job)
	}
	toI, toJ, lI, lJ = transfer(cost, s.To1, s.To2, lI, lJ)
	s.To1, s.To2, s.Load1, s.Load2 = toI, toJ, lI, lJ
	s.Diff1 = pairwise.AppendDiff(s.Diff1[:0], onI, toI)
	s.Diff2 = pairwise.AppendDiff(s.Diff2[:0], onJ, toJ)
	return toI, toJ, true
}

// SameCostMinMove is the movement-minimizing variant of SameCost.
type SameCostMinMove struct {
	// Model prices the jobs.
	Model core.CostModel
}

// Name implements Protocol.
func (SameCostMinMove) Name() string { return "SameCostMinMove" }

// ListOrder implements Protocol: increasing job index.
func (SameCostMinMove) ListOrder() []uint32 { return nil }

// SplitScratch implements Protocol: the rebuild kernel, for callers that
// pool jobs without a placement (Step transfers instead).
func (p SameCostMinMove) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	return SameCost{Model: p.Model}.SplitScratch(s, i, j, jobs)
}

// Transfer implements Protocol: the placed transfer.
func (p SameCostMinMove) Transfer(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int, bool) {
	cost := func(job int) core.Cost { return p.Model.Cost(i, core.JobOf(job)) }
	return transferPlaced(s, cost, onI, onJ)
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

// ListOrder implements Protocol: increasing job index, which the placed
// transfer's tie break is defined on.
func (DLB2CMinMove) ListOrder() []uint32 { return nil }

// SplitScratch implements Protocol: DLB2C's kernels, which Step runs on a
// cross-cluster pair.
func (p DLB2CMinMove) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	return DLB2C{Model: p.Model}.SplitScratch(s, i, j, jobs)
}

// Transfer implements Protocol: the placed transfer within a cluster. A
// cross-cluster pair declines, so Step runs CLB2C on the pair's union.
func (p DLB2CMinMove) Transfer(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int, bool) {
	cluster := p.Model.ClusterOf(i)
	if p.Model.ClusterOf(j) != cluster {
		return nil, nil, false
	}
	cost := func(job int) core.Cost { return p.Model.ClusterCost(cluster, core.JobOf(job)) }
	return transferPlaced(s, cost, onI, onJ)
}

var (
	_ Protocol = SameCostMinMove{}
	_ Protocol = DLB2CMinMove{}
)
