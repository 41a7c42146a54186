package pairwise

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// The //hetlb:noalloc annotations on the kernels are enforced statically by
// hetlbvet's noalloc analyzer, whose rules are necessarily approximate (it
// does not re-run escape analysis). These guards are the dynamic half of the
// contract: after a warm-up that brings every buffer to its high-water
// capacity, each annotated kernel must report exactly zero allocations per
// run. A regression here means a hidden make/box the analyzer missed; a
// regression there means a shape these runs don't exercise.

func assertNoAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm-up: reach high-water buffer capacities before measuring
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("%s: %.2f allocs/run, want 0", name, allocs)
	}
}

func guardInstance(seed uint64) (*core.Dense, []int) {
	gen := rng.New(seed)
	d := workload.UniformDense(gen, 4, 64, 1, 100)
	return d, Union(core.RoundRobin(d), 0, 1)
}

func TestAppendSplitBasicGreedyNoalloc(t *testing.T) {
	d, union := guardInstance(13)
	var to1, to2 []int
	assertNoAllocs(t, "AppendSplitBasicGreedy", func() {
		to1, to2, _, _ = AppendSplitBasicGreedy(d, 0, 1, union, to1[:0], to2[:0])
	})
}

func TestAppendSplitSameCostNoalloc(t *testing.T) {
	d, union := guardInstance(14)
	var to1, to2 []int
	assertNoAllocs(t, "AppendSplitSameCost", func() {
		to1, to2, _, _ = AppendSplitSameCost(d, 0, 1, union, to1[:0], to2[:0])
	})
}

func TestSplitGreedyLoadBalancingScratchNoalloc(t *testing.T) {
	gen := rng.New(15)
	tc := workload.UniformTwoCluster(gen, 2, 2, 64, 1, 100)
	jobs := make([]int, tc.NumJobs())
	for j := range jobs {
		jobs[j] = j
	}
	var s Scratch
	// Machines 0 and 1 share cluster 0.
	assertNoAllocs(t, "SplitGreedyLoadBalancingScratch", func() {
		SplitGreedyLoadBalancingScratch(&s, tc, 0, 1, jobs)
	})
}

func TestSplitCLB2CScratchNoalloc(t *testing.T) {
	gen := rng.New(16)
	tc := workload.UniformTwoCluster(gen, 2, 2, 64, 1, 100)
	jobs := make([]int, tc.NumJobs())
	for j := range jobs {
		jobs[j] = j
	}
	var s Scratch
	// Machine 0 is in cluster 0, machine 2 in cluster 1.
	assertNoAllocs(t, "SplitCLB2CScratch", func() {
		SplitCLB2CScratch(&s, tc, 0, 2, jobs)
	})
}

func TestSplitLargestFirstScratchNoalloc(t *testing.T) {
	gen := rng.New(18)
	tc := workload.UniformTwoCluster(gen, 2, 2, 64, 1, 100)
	jobs := make([]int, tc.NumJobs())
	for j := range jobs {
		jobs[j] = j
	}
	var s Scratch
	// Machines 2 and 3 share cluster 1.
	assertNoAllocs(t, "SplitLargestFirstScratch", func() {
		SplitLargestFirstScratch(&s, tc, 3, 2, jobs)
	})
}

func TestAppendDiffNoalloc(t *testing.T) {
	_, union := guardInstance(17)
	old := append([]int(nil), union...)
	// new differs from old in a prefix swap so every run appends real work.
	new := append([]int(nil), old...)
	for i := 0; i < len(new)/2; i++ {
		new[i] += 1000
	}
	// Re-sorting keeps the sorted-input contract after the perturbation.
	for i := 1; i < len(new); i++ {
		for j := i; j > 0 && new[j] < new[j-1]; j-- {
			new[j], new[j-1] = new[j-1], new[j]
		}
	}
	var s Scratch
	assertNoAllocs(t, "AppendDiff", func() {
		s.Diff1 = AppendDiff(s.Diff1[:0], old, new)
		s.Diff2 = AppendDiff(s.Diff2[:0], new, old)
	})
	if len(s.Diff1) == 0 || len(s.Diff2) == 0 {
		t.Fatalf("guard exercised an empty diff (lens %d/%d); perturbation failed", len(s.Diff1), len(s.Diff2))
	}
}
