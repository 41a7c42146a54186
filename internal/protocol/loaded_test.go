package protocol

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestLoadedZeroBaseMatchesUnloaded holds every LoadedSplitter to its
// contract: at zero bases the loaded split places each pooled job where
// SplitScratch does. The loaded forms return their sides in placement order,
// so the sides are compared as sets. The first case pins MJTB on two types
// with every cost 1, where carrying one type's loads into the next would
// send job 1 to machine 1.
func TestLoadedZeroBaseMatchesUnloaded(t *testing.T) {
	unit, err := core.NewTyped([][]core.Cost{{1, 1}, {1, 1}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		p    Protocol
		i, j int
	}
	check := func(c pair, jobs []int) {
		t.Helper()
		var s pairwise.Scratch
		u1, u2 := c.p.SplitScratch(&s, c.i, c.j, jobs)
		u1, u2 = asSet(u1), asSet(u2)
		l1, l2 := c.p.(LoadedSplitter).SplitLoaded(c.i, c.j, 0, 0, slices.Clone(jobs))
		if l1, l2 = asSet(l1), asSet(l2); !slices.Equal(u1, l1) || !slices.Equal(u2, l2) {
			t.Fatalf("%s on (%d,%d) of %v: SplitLoaded at zero bases gives %v | %v, SplitScratch %v | %v",
				c.p.Name(), c.i, c.j, jobs, l1, l2, u1, u2)
		}
	}
	check(pair{MJTB{Model: unit}, 0, 1}, []int{0, 1})

	gen := rng.New(41)
	for iter := 0; iter < 40; iter++ {
		const n = 12
		dense := workload.UniformDense(gen, 2, n, 1, 30)
		typed := workload.UniformTyped(gen, 2, n, 3, 1, 30)
		tc := workload.UniformTwoCluster(gen, 2, 2, n, 1, 30)
		kc := randomKCluster(gen, 3, 2, n, 30)
		var jobs []int
		for j := 0; j < n; j++ {
			if gen.Intn(4) != 0 {
				jobs = append(jobs, j)
			}
		}
		for _, c := range []pair{
			{OJTB{Model: dense}, 0, 1},
			{SameCost{Model: dense}, 1, 0},
			{MJTB{Model: typed}, 0, 1},
			{DLB2C{Model: tc}, 0, 1}, // same cluster
			{DLB2C{Model: tc}, 3, 0}, // cross-cluster
			{DLBKC{Model: kc}, 2, 3}, // same cluster
			{DLBKC{Model: kc}, 1, 4}, // cross-cluster
		} {
			check(c, jobs)
		}
	}
}

// asSet returns a side's jobs in increasing order.
func asSet(side []int) []int {
	jobs := make([]int, len(side))
	for k, entry := range side {
		jobs[k] = core.JobOf(entry)
	}
	slices.Sort(jobs)
	return jobs
}
