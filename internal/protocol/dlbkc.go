package protocol

import (
	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// DLBKC extends DLB2C to k clusters of identical machines — the paper's
// named future work. The pairwise rule generalizes naturally:
//
//   - machines of the same cluster pool their jobs and split them with a
//     size-descending greedy (LPT order; any order keeps the residual
//     imbalance within pmax, descending order tightens it in practice);
//   - machines of different clusters a and b run CLB2C on the two-cluster
//     restriction of the instance (costs of clusters a and b only).
//
// No approximation guarantee is proven for k > 2 (that is exactly what the
// paper leaves open); the repository's benchmarks measure its equilibrium
// quality against the fractional lower bound instead.
type DLBKC struct {
	// Model is the k-cluster instance; it must be the assignment's model.
	Model *core.KCluster
}

// Name implements Protocol.
func (DLBKC) Name() string { return "DLBKC" }

// ListOrder implements Protocol: increasing job index (each pair of
// clusters has its own ratio order).
func (DLBKC) ListOrder() []uint32 { return nil }

// SplitScratch implements Protocol: the largest-first split within a
// cluster, CLB2C across clusters on the views cached by the model at
// construction, so both branches are allocation-free.
func (p DLBKC) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	a := p.Model.ClusterOf(i)
	b := p.Model.ClusterOf(j)
	if a == b {
		return pairwise.SplitLargestFirstScratch(s, p.Model, i, j, jobs)
	}
	view := p.Model.PairView(a, b)
	return pairwise.SplitCLB2CScratch(s, view, i, j, jobs)
}

// Transfer implements Protocol: DLBKC rebuilds the pair's partition.
func (DLBKC) Transfer(*pairwise.Scratch, int, int, []int, []int) ([]int, []int, bool) {
	return nil, nil, false
}
