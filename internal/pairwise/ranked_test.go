package pairwise

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
)

// rankedUnion returns jobs as entries rank[job]<<32 | job sorted by entry:
// the union a DLB2C step pools from two lists kept in its model's ratio
// order.
func rankedUnion(rank, jobs []int) []int {
	union := make([]int, len(jobs))
	for k, j := range jobs {
		union[k] = int(uint64(rank[j])<<32 | uint64(j))
	}
	slices.Sort(union)
	return union
}

// ratioRanks returns each job's rank in the model's ratio order.
func ratioRanks(tc *core.TwoCluster) []int {
	rank := make([]int, tc.NumJobs())
	for k, j := range tc.RatioOrder() {
		rank[j] = k
	}
	return rank
}

// jobsOf returns the jobs of a side's entries in increasing job order.
func jobsOf(side []int) []int {
	jobs := make([]int, len(side))
	for k, entry := range side {
		jobs[k] = core.JobOf(entry)
	}
	slices.Sort(jobs)
	return jobs
}

// TestRankedWalksMatchReferences holds the ranked walks of
// SplitGreedyLoadBalancingScratch and SplitCLB2CScratch to the
// comparator-sort references and to the job-order path: on every cost
// family, union sizes 0..3, 16, 200 and n, both clusters and both argument
// orders, a ranked union must put every job on the reference's side, each
// side strictly increasing by entry, with the loads its jobs sum to, and
// must give the job-order union's split of the same jobs. One scratch
// serves every ranked call, so leftovers from a larger union must not leak
// into a smaller one. Through a model that hides its cost vectors a ranked
// union takes the ordering path, which must agree too.
func TestRankedWalksMatchReferences(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("ranked entries need a 64-bit int")
	}
	var s, js Scratch
	for seed := uint64(1); seed <= 6; seed++ {
		gen := rng.New(seed)
		const n = 300
		for k, f := range oracleFamilies(gen, n) {
			tc := oracleModel(t, f.p0, f.p1)
			rank := ratioRanks(tc)
			var model core.Clustered = tc
			if (int(seed)+k)%3 == 2 {
				model = opaque{tc}
			}
			for trial := 0; trial < 28; trial++ {
				size := []int{0, 1, 2, 3, 16, 200, n}[trial%7]
				jobs := gen.Perm(n)[:size]
				slices.Sort(jobs)
				union := rankedUnion(rank, jobs)
				check := func(kernel string, a, b int, split func(*Scratch, core.Clustered, int, int, []int) ([]int, []int),
					ref func(core.Clustered, int, int, []int) ([]int, []int)) {
					t.Helper()
					what := fmt.Sprintf("%s %s model=%T seed=%d size=%d (%d,%d)", f.name, kernel, model, seed, size, a, b)
					got1, got2 := split(&s, model, a, b, union)
					for _, side := range [][]int{got1, got2} {
						if !increasing(side) {
							t.Fatalf("%s: side %v is not in entry order", what, side)
						}
					}
					if l1, l2 := sideCost(tc, a, got1), sideCost(tc, b, got2); s.Load1 != l1 || s.Load2 != l2 {
						t.Fatalf("%s: loads %d and %d, sides cost %d and %d", what, s.Load1, s.Load2, l1, l2)
					}
					want1, want2 := ref(tc, a, b, jobs)
					if !slices.Equal(jobsOf(got1), sorted(want1)) || !slices.Equal(jobsOf(got2), sorted(want2)) {
						t.Fatalf("%s: got (%v, %v), reference (%v, %v)", what, jobsOf(got1), jobsOf(got2), want1, want2)
					}
					job1, job2 := split(&js, model, a, b, jobs)
					if !slices.Equal(jobsOf(got1), job1) || !slices.Equal(jobsOf(got2), job2) ||
						s.Load1 != js.Load1 || s.Load2 != js.Load2 {
						t.Fatalf("%s: ranked (%v, %v; %d, %d), job order (%v, %v; %d, %d)",
							what, jobsOf(got1), jobsOf(got2), s.Load1, s.Load2, job1, job2, js.Load1, js.Load2)
					}
				}
				for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
					check("GreedyLoadBalancing", pair[0], pair[1], SplitGreedyLoadBalancingScratch, refGreedyLoadBalancing)
				}
				for _, pair := range [][2]int{{0, 2}, {2, 0}, {1, 3}, {3, 1}} {
					check("CLB2C", pair[0], pair[1], SplitCLB2CScratch, refCLB2C)
				}
			}
		}
	}
}

// increasing reports whether side is strictly increasing.
func increasing(side []int) bool {
	for k := 1; k < len(side); k++ {
		if side[k-1] >= side[k] {
			return false
		}
	}
	return true
}

// sideCost sums the costs of a side's jobs on machine i.
func sideCost(m core.CostModel, i int, side []int) core.Cost {
	var l core.Cost
	for _, entry := range side {
		l += m.Cost(i, core.JobOf(entry))
	}
	return l
}
