package main

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestExploreSearchFindsCycleInstance pins the search of `explore -tries`:
// at seed 1 and the default 2+1 machines, 5 jobs and costs U[1,5], the first
// instance that proves non-convergence is workload.CycleInstance, at try
// 351, under the explore and the old search's state caps alike. The
// explicit cycle FindCycle extracts from it must close, and each of its
// arrows must be one protocol.Balance step of some pair.
func TestExploreSearchFindsCycleInstance(t *testing.T) {
	want, wantStart := workload.CycleInstance()
	for _, maxStates := range []int{4000, 100000} {
		tc, start, r, try := searchNonConvergence(rng.New(1), 2, 1, 5, 5, 400, maxStates)
		if !r.ProvesNonConvergence() || try != 351 {
			t.Fatalf("maxstates %d: search stopped at try %d (proves non-convergence: %v), want 351",
				maxStates, try, r.ProvesNonConvergence())
		}
		for c := 0; c < 2; c++ {
			if !slices.Equal(tc.ClusterCosts(c), want.ClusterCosts(c)) {
				t.Fatalf("cluster %d costs %v, CycleInstance has %v", c, tc.ClusterCosts(c), want.ClusterCosts(c))
			}
		}
		if !start.Equal(wantStart) {
			t.Fatalf("placement %v, CycleInstance has %v", placement(start), placement(wantStart))
		}
		if r.States != 19 || r.StableStates != 0 {
			t.Fatalf("%d reachable states, %d stable; want 19 and 0", r.States, r.StableStates)
		}

		p := protocol.DLB2C{Model: tc}
		cyc := protocol.FindCycle(p, start, maxStates)
		if len(cyc) < 3 || !cyc[0].Equal(cyc[len(cyc)-1]) {
			t.Fatalf("FindCycle returned %d states, want a closed cycle of at least 2 steps", len(cyc))
		}
		for k := 0; k+1 < len(cyc); k++ {
			if !oneStep(p, cyc[k], cyc[k+1]) {
				t.Fatalf("cycle state %d -> %d is not one balancing step", k, k+1)
			}
		}
	}
}

// oneStep reports whether balancing some pair of machines of from yields to.
func oneStep(p protocol.Protocol, from, to *core.Assignment) bool {
	m := from.Model().NumMachines()
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			next := from.Clone()
			protocol.Balance(p, next, i, j)
			if next.Equal(to) {
				return true
			}
		}
	}
	return false
}
