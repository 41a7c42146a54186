package pairwise

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
)

// The reference kernels below are the comparator-sort forms the ordering
// kernels replaced: they sort the jobs with slices.SortFunc and an exact
// comparator that reads the costs through the model on every comparison,
// then walk that order. They return each side in placement order. The
// ordering kernels must put every job on the same side as these.

// refOrder sorts a copy of jobs by the exact ratio order (own cluster over
// the other, core.CompareRatios, index tie break).
func refOrder(c core.Clustered, own int, jobs []int) []int {
	other := 1 - own
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, func(jx, jy int) int {
		if r := core.CompareRatios(c.ClusterCost(own, jx), c.ClusterCost(other, jx),
			c.ClusterCost(own, jy), c.ClusterCost(other, jy)); r != 0 {
			return r
		}
		return jx - jy
	})
	return sorted
}

func refGreedyLoadBalancing(c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = refGreedyLoadBalancing(c, m2, m1, jobs)
		return to1, to2
	}
	own := c.ClusterOf(m1)
	var l1, l2 core.Cost
	for _, j := range refOrder(c, own, jobs) {
		if l1 <= l2 {
			to1 = append(to1, j)
			l1 += c.ClusterCost(own, j)
		} else {
			to2 = append(to2, j)
			l2 += c.ClusterCost(own, j)
		}
	}
	return to1, to2
}

func refCLB2C(c core.Clustered, mA, mB int, jobs []int) (toA, toB []int) {
	sorted := refOrder(c, 0, jobs)
	var to0, to1 []int
	var l0, l1 core.Cost
	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		c0 := l0 + c.ClusterCost(0, sorted[lo])
		c1 := l1 + c.ClusterCost(1, sorted[hi])
		if c0 <= c1 {
			to0 = append(to0, sorted[lo])
			l0 = c0
			lo++
		} else {
			to1 = append(to1, sorted[hi])
			l1 = c1
			hi--
		}
	}
	if c.ClusterOf(mA) == 1 {
		return to1, to0
	}
	return to0, to1
}

func refLargestFirst(c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if m1 > m2 {
		to2, to1 = refLargestFirst(c, m2, m1, jobs)
		return to1, to2
	}
	cluster := c.ClusterOf(m1)
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, func(jx, jy int) int {
		cx, cy := c.ClusterCost(cluster, jx), c.ClusterCost(cluster, jy)
		switch {
		case cx > cy:
			return -1
		case cx < cy:
			return 1
		default:
			return jx - jy
		}
	})
	var l1, l2 core.Cost
	for _, j := range sorted {
		if l1 <= l2 {
			to1 = append(to1, j)
			l1 += c.ClusterCost(cluster, j)
		} else {
			to2 = append(to2, j)
			l2 += c.ClusterCost(cluster, j)
		}
	}
	return to1, to2
}

// refSizeOrder sorts a copy of jobs by decreasing cost on the cluster
// (index tie break).
func refSizeOrder(c core.Clustered, cluster int, jobs []int) []int {
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, func(jx, jy int) int {
		if r := cmp.Compare(c.ClusterCost(cluster, jy), c.ClusterCost(cluster, jx)); r != 0 {
			return r
		}
		return jx - jy
	})
	return sorted
}

// oracleModel builds a 2+2 two-cluster model (machines 0, 1 in cluster 0;
// 2, 3 in cluster 1) from per-job cost pairs.
func oracleModel(t *testing.T, p0, p1 []core.Cost) *core.TwoCluster {
	t.Helper()
	tc, err := core.NewTwoCluster(2, 2, p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// costFamily is n jobs' costs on clusters 0 and 1.
type costFamily struct {
	name   string
	p0, p1 []core.Cost
}

// oracleFamilies returns the cost families the exactness oracle covers.
func oracleFamilies(gen *rng.RNG, n int) []costFamily {
	var fams []costFamily
	add := func(name string, pair func() (core.Cost, core.Cost)) {
		f := costFamily{name, make([]core.Cost, n), make([]core.Cost, n)}
		for j := range f.p0 {
			f.p0[j], f.p1[j] = pair()
		}
		fams = append(fams, f)
	}
	add("random", func() (core.Cost, core.Cost) {
		return gen.IntRange(1, 1000), gen.IntRange(1, 1000)
	})
	// Equal ratios in different terms (1/2, 2/4, 3/6, ...), so exact ties
	// are broken by index.
	ratios := [][2]core.Cost{{1, 2}, {2, 1}, {1, 1}, {3, 5}}
	add("equal-ratios", func() (core.Cost, core.Cost) {
		r, k := ratios[gen.Intn(len(ratios))], gen.IntRange(1, 40)
		return k * r[0], k * r[1]
	})
	// Costs near 2^40 against costs near 2^20 (products stay below 2^61):
	// ratios near 2^20 or 2^-20 that differ far below float32 precision,
	// so many distinct ratios share a key, in either cluster's favor.
	add("near-2^40", func() (core.Cost, core.Cost) {
		big, small := core.Cost(1)<<40+gen.IntRange(0, 1<<20), core.Cost(1)<<20+gen.IntRange(0, 3)
		if gen.Bool() {
			return big, small
		}
		return small, big
	})
	// Free on one cluster: ratio 0 and +∞, mixed with ordinary jobs.
	add("zero-one-side", func() (core.Cost, core.Cost) {
		switch gen.Intn(3) {
		case 0:
			return 0, gen.IntRange(1, 50)
		case 1:
			return gen.IntRange(1, 50), 0
		default:
			return gen.IntRange(1, 50), gen.IntRange(1, 50)
		}
	})
	// Free on both clusters: ordered as ratio 1/1.
	add("zero-both", func() (core.Cost, core.Cost) {
		switch gen.Intn(3) {
		case 0:
			return 0, 0
		case 1:
			k := gen.IntRange(1, 9)
			return k, k
		default:
			return gen.IntRange(0, 9), gen.IntRange(0, 9)
		}
	})
	return fams
}

// checkSides fails unless got matches the reference split want as a
// partition and each side of got is an ordered subsequence of jobs.
func checkSides(t *testing.T, what string, jobs, got1, got2, want1, want2 []int) {
	t.Helper()
	if !slices.Equal(got1, sorted(want1)) || !slices.Equal(got2, sorted(want2)) {
		t.Fatalf("%s: got (%v, %v), reference (%v, %v) for jobs %v", what, got1, got2, want1, want2, jobs)
	}
	for _, side := range [][]int{got1, got2} {
		for k := 1; k < len(side); k++ {
			if side[k-1] >= side[k] {
				t.Fatalf("%s: side %v is not in input order", what, side)
			}
		}
	}
}

// opaque hides a model's cost vectors, so the kernels read its costs
// through ClusterCost.
type opaque struct{ core.Clustered }

// TestOrderingKernelsMatchReferences is the exactness oracle: on every
// cost family, union size 0..2 and beyond, and both argument orders, the
// ordering kernels put every job on the same side as the comparator-sort
// references, whether they read the costs through the model's vectors or
// through ClusterCost. One scratch serves every call, so leftovers from a
// larger union must not leak into a smaller one.
func TestOrderingKernelsMatchReferences(t *testing.T) {
	var s Scratch
	for seed := uint64(1); seed <= 8; seed++ {
		gen := rng.New(seed)
		const n = 300
		for k, f := range oracleFamilies(gen, n) {
			var tc core.Clustered = oracleModel(t, f.p0, f.p1)
			if (int(seed)+k)%2 == 1 {
				tc = opaque{tc}
			}
			for trial := 0; trial < 40; trial++ {
				size := []int{0, 1, 2, 3, 16, 200, n}[trial%7]
				jobs := gen.Perm(n)[:size]
				slices.Sort(jobs)
				what := func(kernel string, a, b int) string {
					return fmt.Sprintf("%s %s model=%T seed=%d size=%d (%d,%d)", f.name, kernel, tc, seed, size, a, b)
				}
				for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
					a, b := pair[0], pair[1]
					want1, want2 := refGreedyLoadBalancing(tc, a, b, jobs)
					got1, got2 := SplitGreedyLoadBalancingScratch(&s, tc, a, b, jobs)
					checkSides(t, what("GreedyLoadBalancing", a, b), jobs, got1, got2, want1, want2)
					want1, want2 = refLargestFirst(tc, a, b, jobs)
					got1, got2 = SplitLargestFirstScratch(&s, tc, a, b, jobs)
					checkSides(t, what("LargestFirst", a, b), jobs, got1, got2, want1, want2)
				}
				for _, pair := range [][2]int{{0, 2}, {2, 0}, {1, 3}, {3, 1}} {
					a, b := pair[0], pair[1]
					want1, want2 := refCLB2C(tc, a, b, jobs)
					got1, got2 := SplitCLB2CScratch(&s, tc, a, b, jobs)
					checkSides(t, what("CLB2C", a, b), jobs, got1, got2, want1, want2)
				}
			}
		}
	}
}

// TestRatioOrderMatchesReference pins the placement order of the *Loaded
// kernels: ratioOrder is the reference order element for element.
func TestRatioOrderMatchesReference(t *testing.T) {
	gen := rng.New(9)
	const n = 300
	for _, f := range oracleFamilies(gen, n) {
		tc := oracleModel(t, f.p0, f.p1)
		for trial := 0; trial < 20; trial++ {
			jobs := gen.Perm(n)[:gen.Intn(n+1)]
			slices.Sort(jobs)
			for own := 0; own < 2; own++ {
				if got, want := ratioOrder(tc, own, jobs), refOrder(tc, own, jobs); !slices.Equal(got, want) {
					t.Fatalf("%s own=%d: ratioOrder %v, reference %v", f.name, own, got, want)
				}
			}
		}
	}
}

// TestSizeOrderMatchesReference pins the placement order of
// SplitLargestFirstLoaded: sizeOrder is the reference order element for
// element.
func TestSizeOrderMatchesReference(t *testing.T) {
	gen := rng.New(10)
	const n = 300
	for _, f := range oracleFamilies(gen, n) {
		tc := oracleModel(t, f.p0, f.p1)
		for trial := 0; trial < 20; trial++ {
			jobs := gen.Perm(n)[:gen.Intn(n+1)]
			if trial%2 == 0 {
				slices.Sort(jobs)
			}
			for cluster := 0; cluster < 2; cluster++ {
				if got, want := sizeOrder(tc, cluster, jobs), refSizeOrder(tc, cluster, jobs); !slices.Equal(got, want) {
					t.Fatalf("%s cluster=%d: sizeOrder %v, reference %v", f.name, cluster, got, want)
				}
			}
		}
	}
}
