package pairwise

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func equalSplits(a1, a2, b1, b2 []int) bool {
	if len(a1) != len(b1) || len(a2) != len(b2) {
		return false
	}
	for k := range a1 {
		if a1[k] != b1[k] {
			return false
		}
	}
	for k := range a2 {
		if a2[k] != b2[k] {
			return false
		}
	}
	return true
}

func TestLoadedZeroBaseMatchesUnloaded(t *testing.T) {
	gen := rng.New(1)
	for iter := 0; iter < 40; iter++ {
		d := workload.UniformDense(gen, 2, 10, 1, 30)
		jobs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		u1, u2 := AppendSplitBasicGreedy(d, 0, 1, jobs, nil, nil)
		l1, l2 := SplitBasicGreedyLoaded(d, 0, 1, 0, 0, jobs)
		if !equalSplits(u1, u2, l1, l2) {
			t.Fatal("BasicGreedyLoaded(0,0) != BasicGreedy")
		}
		s1, s2 := AppendSplitSameCost(d, 0, 1, jobs, nil, nil)
		sl1, sl2 := SplitSameCostLoaded(d, 0, 1, 0, 0, jobs)
		if !equalSplits(s1, s2, sl1, sl2) {
			t.Fatal("SameCostLoaded(0,0) != SameCost")
		}
	}
}

// sorted returns a sorted copy of a split side.
func sorted(side []int) []int {
	c := slices.Clone(side)
	slices.Sort(c)
	return c
}

// The clustered loaded kernels return their sides in placement order and
// the unloaded ones in input order, so the sides are compared as sets.
func TestLoadedZeroBaseMatchesUnloadedClustered(t *testing.T) {
	gen := rng.New(2)
	for iter := 0; iter < 40; iter++ {
		tc := workload.UniformTwoCluster(gen, 2, 2, 10, 1, 30)
		jobs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		var s Scratch
		g1, g2 := SplitGreedyLoadBalancingScratch(&s, tc, 0, 1, jobs)
		gl1, gl2 := SplitGreedyLoadBalancingLoaded(tc, 0, 1, 0, 0, jobs)
		if !equalSplits(g1, g2, sorted(gl1), sorted(gl2)) {
			t.Fatal("GreedyLoadBalancingLoaded(0,0) != unloaded")
		}
		c1, c2 := SplitCLB2CScratch(&s, tc, 0, 2, jobs)
		cl1, cl2 := SplitCLB2CLoaded(tc, 0, 2, 0, 0, jobs)
		if !equalSplits(c1, c2, sorted(cl1), sorted(cl2)) {
			t.Fatal("CLB2CLoaded(0,0) != unloaded")
		}
	}
}

func TestLoadedSymmetricUnderSwap(t *testing.T) {
	gen := rng.New(3)
	tc := workload.UniformTwoCluster(gen, 2, 2, 12, 1, 40)
	jobs := []int{0, 2, 3, 5, 7, 8, 10, 11}
	// Same-cluster loaded kernel.
	a1, a2 := SplitGreedyLoadBalancingLoaded(tc, 0, 1, 13, 7, jobs)
	b2, b1 := SplitGreedyLoadBalancingLoaded(tc, 1, 0, 7, 13, jobs)
	if !equalSplits(a1, a2, b1, b2) {
		t.Fatal("loaded same-cluster kernel depends on argument order")
	}
	// Cross-cluster loaded kernel.
	c1, c2 := SplitCLB2CLoaded(tc, 0, 2, 13, 7, jobs)
	d2, d1 := SplitCLB2CLoaded(tc, 2, 0, 7, 13, jobs)
	if !equalSplits(c1, c2, d1, d2) {
		t.Fatal("loaded cross-cluster kernel depends on argument order")
	}
}

func TestLoadedBiasesAwayFromBusyMachine(t *testing.T) {
	// Machine 0 carries a large base load: the loaded kernel must push
	// (almost) everything to machine 1.
	id, _ := core.NewIdentical(2, []core.Cost{5, 5, 5, 5})
	to0, to1 := SplitSameCostLoaded(id, 0, 1, 1000, 0, []int{0, 1, 2, 3})
	if len(to0) != 0 || len(to1) != 4 {
		t.Fatalf("loaded kernel kept jobs on the busy machine: %v | %v", to0, to1)
	}
}

func TestLoadedCLB2CBiasesAwayFromBusyCluster(t *testing.T) {
	tc, _ := core.NewTwoCluster(1, 1, []core.Cost{5, 5}, []core.Cost{6, 6})
	// Cluster-0 machine busy for 100: both jobs should land on cluster 1
	// even though it is slightly slower per job.
	toA, toB := SplitCLB2CLoaded(tc, 0, 1, 100, 0, []int{0, 1})
	if len(toA) != 0 || len(toB) != 2 {
		t.Fatalf("loaded CLB2C ignored the base load: %v | %v", toA, toB)
	}
}

// TestLargestFirstLoaded holds SplitLargestFirstLoaded to the comparator
// sort DLBKC's loaded same-cluster split ran before: every side, in
// placement order, from any base loads and in either argument order. At
// zero bases it splits as SplitLargestFirstScratch.
func TestLargestFirstLoaded(t *testing.T) {
	gen := rng.New(4)
	var s Scratch
	for iter := 0; iter < 60; iter++ {
		n := []int{0, 1, 10, 100}[iter%4]
		tc := workload.UniformTwoCluster(gen, 2, 2, n, 1, 30)
		jobs := gen.Perm(n)
		m1, m2 := 2*(iter%2), 2*(iter%2)+1
		b1, b2 := gen.IntRange(0, 60), gen.IntRange(0, 60)
		var w1, w2 []int
		l1, l2 := b1, b2
		for _, j := range refSizeOrder(tc, tc.ClusterOf(m1), jobs) {
			if cost := tc.ClusterCost(tc.ClusterOf(m1), j); l1 <= l2 {
				w1, l1 = append(w1, j), l1+cost
			} else {
				w2, l2 = append(w2, j), l2+cost
			}
		}
		g1, g2 := SplitLargestFirstLoaded(tc, m1, m2, b1, b2, jobs)
		h2, h1 := SplitLargestFirstLoaded(tc, m2, m1, b2, b1, jobs)
		if !equalSplits(g1, g2, w1, w2) || !equalSplits(h1, h2, w1, w2) {
			t.Fatalf("bases (%d, %d): got (%v, %v) and swapped (%v, %v), reference (%v, %v)", b1, b2, g1, g2, h1, h2, w1, w2)
		}
		slices.Sort(jobs)
		u1, u2 := SplitLargestFirstScratch(&s, tc, m1, m2, jobs)
		z1, z2 := SplitLargestFirstLoaded(tc, m1, m2, 0, 0, jobs)
		if !equalSplits(u1, u2, sorted(z1), sorted(z2)) {
			t.Fatal("LargestFirstLoaded(0,0) != unloaded")
		}
	}
}
