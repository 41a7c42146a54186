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

// The oracle below is the loaded kernels' own walks before they ran the
// plain kernels from two start loads: each places the jobs one at a time,
// reading costs through the model, in the comparator-sort reference order
// (refOrder, refSizeOrder), and returns each side in placement order.

func oracleBasicGreedy(m core.CostModel, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = oracleBasicGreedy(m, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	l1, l2 := base1, base2
	for _, j := range jobs {
		c1, c2 := m.Cost(m1, j), m.Cost(m2, j)
		if l1+c1 <= l2+c2 {
			to1, l1 = append(to1, j), l1+c1
		} else {
			to2, l2 = append(to2, j), l2+c2
		}
	}
	return to1, to2
}

func oracleSameCost(m core.CostModel, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = oracleSameCost(m, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	l1, l2 := base1, base2
	for _, j := range jobs {
		if l1 <= l2 {
			to1, l1 = append(to1, j), l1+m.Cost(m1, j)
		} else {
			to2, l2 = append(to2, j), l2+m.Cost(m2, j)
		}
	}
	return to1, to2
}

func oracleGreedyLoadBalancing(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	return oracleGreedy(refOrder, c, m1, m2, base1, base2, jobs)
}

func oracleLargestFirst(c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	return oracleGreedy(refSizeOrder, c, m1, m2, base1, base2, jobs)
}

// oracleGreedy places the jobs in the order inOrder returns on the pair's
// cluster, each on the machine with the smaller load so far, ties to the
// lower-indexed machine.
func oracleGreedy(inOrder func(core.Clustered, int, []int) []int, c core.Clustered, m1, m2 int, base1, base2 core.Cost, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = oracleGreedy(inOrder, c, m2, m1, base2, base1, jobs)
		return to1, to2
	}
	own := c.ClusterOf(m1)
	l1, l2 := base1, base2
	for _, j := range inOrder(c, own, jobs) {
		if cost := c.ClusterCost(own, j); l1 <= l2 {
			to1, l1 = append(to1, j), l1+cost
		} else {
			to2, l2 = append(to2, j), l2+cost
		}
	}
	return to1, to2
}

// oracleCLB2C walks the ratio order from both ends from the two bases,
// appending each head job to the cluster-0 side and each tail job to the
// cluster-1 side as it commits them.
func oracleCLB2C(c core.Clustered, mA, mB int, baseA, baseB core.Cost, jobs []int) (toA, toB []int) {
	b0, b1 := baseA, baseB
	if c.ClusterOf(mA) == 1 {
		b0, b1 = b1, b0
	}
	sorted := refOrder(c, 0, jobs)
	var to0, to1 []int
	l0, l1 := b0, b1
	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		c0 := l0 + c.ClusterCost(0, sorted[lo])
		c1 := l1 + c.ClusterCost(1, sorted[hi])
		if c0 <= c1 {
			to0, l0 = append(to0, sorted[lo]), c0
			lo++
		} else {
			to1, l1 = append(to1, sorted[hi]), c1
			hi--
		}
	}
	if c.ClusterOf(mA) == 1 {
		return to1, to0
	}
	return to0, to1
}

// TestLoadedKernelsMatchOracle holds every loaded form to the oracle walks
// side for side, in placement order: the three ordering kernels' *Loaded
// forms and both Append forms with their start loads. It covers every
// oracle cost family (ties, free jobs, shared float32 images), unions of 0
// to 300 jobs in increasing or shuffled job order, bases 0, equal, unequal
// and one base above the union's total, both argument orders and both
// clusters, on a two-cluster model and on a DLBKC pair view of a
// three-cluster model whose cluster order is reversed.
func TestLoadedKernelsMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		gen := rng.New(seed)
		const n = 300
		for _, f := range oracleFamilies(gen, n) {
			tc := oracleModel(t, f.p0, f.p1)
			kc, err := core.NewKCluster([]int{1, 2, 2}, [][]core.Cost{f.p0, f.p0, f.p1})
			if err != nil {
				t.Fatal(err)
			}
			// Machines 1, 2 are the view's cluster 1 and 3, 4 its cluster 0.
			view := kc.PairView(2, 1)
			for trial := 0; trial < 24; trial++ {
				size := []int{0, 1, 2, 3, 16, 200, n, gen.Intn(n + 1)}[trial%8]
				jobs := gen.Perm(n)[:size]
				if trial%3 != 2 {
					slices.Sort(jobs)
				}
				var total core.Cost
				for _, j := range jobs {
					total += f.p0[j] + f.p1[j]
				}
				var b1, b2 core.Cost
				switch trial % 4 {
				case 1:
					b1 = gen.IntRange(0, total/4+1)
					b2 = b1
				case 2:
					b1, b2 = gen.IntRange(0, total/4+1), gen.IntRange(0, total/4+1)
				case 3:
					b1, b2 = total+1, gen.IntRange(0, total/4+1)
					if gen.Bool() {
						b1, b2 = b2, b1
					}
				}
				check := func(kernel string, model core.Clustered, a, b int,
					got, want func(core.Clustered, int, int, core.Cost, core.Cost, []int) ([]int, []int)) {
					t.Helper()
					g1, g2 := got(model, a, b, b1, b2, slices.Clone(jobs))
					w1, w2 := want(model, a, b, b1, b2, jobs)
					if !equalSplits(g1, g2, w1, w2) {
						t.Fatalf("%s %s model=%T seed=%d size=%d (%d,%d) bases (%d,%d): got (%v, %v), oracle (%v, %v)",
							f.name, kernel, model, seed, size, a, b, b1, b2, g1, g2, w1, w2)
					}
				}
				basic := func(c core.Clustered, a, b int, b1, b2 core.Cost, jobs []int) ([]int, []int) {
					to1, to2, _, _ := AppendSplitBasicGreedy(c, a, b, b1, b2, jobs, nil, nil)
					return to1, to2
				}
				wantBasic := func(c core.Clustered, a, b int, b1, b2 core.Cost, jobs []int) ([]int, []int) {
					return oracleBasicGreedy(c, a, b, b1, b2, jobs)
				}
				same := func(c core.Clustered, a, b int, b1, b2 core.Cost, jobs []int) ([]int, []int) {
					to1, to2, _, _ := AppendSplitSameCost(c, a, b, b1, b2, jobs, nil, nil)
					return to1, to2
				}
				wantSame := func(c core.Clustered, a, b int, b1, b2 core.Cost, jobs []int) ([]int, []int) {
					return oracleSameCost(c, a, b, b1, b2, jobs)
				}
				for _, m := range []struct {
					model      core.Clustered
					same, diff [][2]int
				}{
					{tc, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}, [][2]int{{0, 2}, {2, 0}, {1, 3}, {3, 1}}},
					{view, [][2]int{{1, 2}, {2, 1}, {3, 4}, {4, 3}}, [][2]int{{3, 1}, {1, 3}, {2, 4}, {4, 2}}},
				} {
					for _, p := range m.same {
						check("GreedyLoadBalancing", m.model, p[0], p[1], SplitGreedyLoadBalancingLoaded, oracleGreedyLoadBalancing)
						check("LargestFirst", m.model, p[0], p[1], SplitLargestFirstLoaded, oracleLargestFirst)
					}
					for _, p := range m.diff {
						check("CLB2C", m.model, p[0], p[1], SplitCLB2CLoaded, oracleCLB2C)
						check("BasicGreedy", m.model, p[0], p[1], basic, wantBasic)
						check("SameCost", m.model, p[0], p[1], same, wantSame)
					}
				}
			}
		}
	}
}

func TestLoadedZeroBaseMatchesUnloaded(t *testing.T) {
	gen := rng.New(1)
	for iter := 0; iter < 40; iter++ {
		d := workload.UniformDense(gen, 2, 10, 1, 30)
		jobs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		u1, u2, _, _ := AppendSplitBasicGreedy(d, 0, 1, 0, 0, jobs, nil, nil)
		l1, l2 := oracleBasicGreedy(d, 0, 1, 0, 0, jobs)
		if !equalSplits(u1, u2, l1, l2) {
			t.Fatal("BasicGreedyLoaded(0,0) != BasicGreedy")
		}
		s1, s2, _, _ := AppendSplitSameCost(d, 0, 1, 0, 0, jobs, nil, nil)
		sl1, sl2 := oracleSameCost(d, 0, 1, 0, 0, jobs)
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
	to0, to1, _, _ := AppendSplitSameCost(id, 0, 1, 1000, 0, []int{0, 1, 2, 3}, nil, nil)
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
