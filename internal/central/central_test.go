package central

import (
	"container/heap"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func TestListSchedulingIdenticalTwoApprox(t *testing.T) {
	// Graham's bound: on identical machines List Scheduling is a
	// (2 - 1/m)-approximation. Check against the exact solver.
	gen := rng.New(1)
	for iter := 0; iter < 80; iter++ {
		m := 2 + gen.Intn(3)
		n := 1 + gen.Intn(8)
		id := workload.UniformIdentical(gen, m, n, 1, 40)
		ls := ListScheduling(id, nil)
		opt := exact.Solve(id).Opt
		bound := 2*opt - (opt+core.Cost(m)-1)/core.Cost(m) // 2*OPT - OPT/m, integer-safe upper estimate
		if ls.Makespan() > bound {
			t.Fatalf("LS makespan %d exceeds Graham bound (opt=%d, m=%d)", ls.Makespan(), opt, m)
		}
		if err := ls.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLPTFourThirdsApprox(t *testing.T) {
	gen := rng.New(2)
	for iter := 0; iter < 80; iter++ {
		m := 2 + gen.Intn(3)
		n := 1 + gen.Intn(9)
		id := workload.UniformIdentical(gen, m, n, 1, 40)
		lpt := LPT(id)
		opt := exact.Solve(id).Opt
		// LPT ≤ (4/3 - 1/(3m))·OPT ≤ 4/3·OPT; use exact rational compare:
		// 3·LPT ≤ 4·OPT.
		if 3*lpt.Makespan() > 4*opt {
			t.Fatalf("LPT makespan %d > 4/3·OPT (opt=%d, m=%d, n=%d)", lpt.Makespan(), opt, m, n)
		}
	}
}

func TestLPTClassicWorstCase(t *testing.T) {
	// Classic LPT tight-ish example: sizes {3,3,2,2,2} on 2 machines.
	// OPT = 6 (3+3 vs 2+2+2) but LPT pairs the 3s apart and ends at 7,
	// within the 4/3 bound. This pins the known behaviour so a regression
	// in the ordering is caught.
	id, _ := core.NewIdentical(2, []core.Cost{3, 3, 2, 2, 2})
	lpt := LPT(id)
	if lpt.Makespan() != 7 {
		t.Fatalf("LPT = %d, want 7", lpt.Makespan())
	}
	if opt := exact.Solve(id).Opt; opt != 6 {
		t.Fatalf("OPT = %d, want 6", opt)
	}
}

func TestListSchedulingCompletesAllJobs(t *testing.T) {
	gen := rng.New(3)
	d := workload.UniformDense(gen, 4, 20, 1, 100)
	a := ListScheduling(d, nil)
	if !a.Complete() {
		t.Fatal("List Scheduling left jobs unassigned")
	}
}

func TestListSchedulingEmpty(t *testing.T) {
	id, _ := core.NewIdentical(2, nil)
	a := ListScheduling(id, nil)
	if a.Makespan() != 0 {
		t.Fatal("empty instance should have makespan 0")
	}
}

func TestRatioLessExactAndTotal(t *testing.T) {
	tc, _ := core.NewTwoCluster(1, 1,
		[]core.Cost{2, 4, 1, 3, 0, 0, 5, 0},
		[]core.Cost{4, 2, 1, 3, 0, 5, 0, 0})
	// Ratios: j0=0.5, j1=2, j2=1, j3=1, j5=0, j6=+inf, and j4, j7 are free
	// on both clusters, which counts as 1/1. Sorted: j5, j0, then the
	// ratio-1 jobs by index (j2, j3, j4, j7), then j1, j6.
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	SortByRatio(tc, jobs)
	want := []int{5, 0, 2, 3, 4, 7, 1, 6}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("SortByRatio = %v, want %v", jobs, want)
		}
	}
	// The shared routine agrees.
	keys, _ := core.OrderJobs(core.ByRatio, tc.ClusterCosts(0), tc.ClusterCosts(1), nil, nil, nil)
	for i, key := range keys {
		if int(uint32(key)) != want[i] {
			t.Fatalf("core.OrderJobs put job %d at %d, want %v", uint32(key), i, want)
		}
	}
	// A strict total order on distinct jobs: antisymmetric, total and
	// transitive. Without the 1/1 rule, j4 ties with every job and
	// transitivity fails.
	n := len(jobs)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if RatioLess(tc, a, b) == RatioLess(tc, b, a) {
				t.Fatalf("RatioLess not a strict total order on (%d, %d)", a, b)
			}
			for c := 0; c < n; c++ {
				if RatioLess(tc, a, b) && RatioLess(tc, b, c) && !RatioLess(tc, a, c) {
					t.Fatalf("RatioLess not transitive on (%d, %d, %d)", a, b, c)
				}
			}
		}
	}
}

func TestCLB2CCompleteAndValid(t *testing.T) {
	gen := rng.New(4)
	tc := workload.UniformTwoCluster(gen, 3, 2, 24, 1, 100)
	a := RunCLB2C(tc)
	if !a.Complete() {
		t.Fatal("CLB2C left jobs unassigned")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCLB2CRespectsClusters(t *testing.T) {
	// Jobs must only land on machines in the provided subsets.
	gen := rng.New(5)
	tc := workload.UniformTwoCluster(gen, 4, 4, 16, 1, 50)
	a := core.NewAssignment(tc)
	jobs := []int{0, 1, 2, 3, 4, 5}
	CLB2C(a, tc, []int{1}, []int{6}, jobs)
	for _, j := range jobs {
		i := a.MachineOf(j)
		if i != 1 && i != 6 {
			t.Fatalf("job %d on machine %d, expected 1 or 6", j, i)
		}
	}
	if a.NumAssigned() != len(jobs) {
		t.Fatal("not all requested jobs were placed")
	}
}

func TestCLB2CTwoApproximation(t *testing.T) {
	// Theorem 6: under the hypothesis p_{i,j} ≤ OPT, CLB2C ≤ 2·OPT.
	// Verify against the exact solver on random small instances, skipping
	// instances that violate the hypothesis.
	gen := rng.New(6)
	checked := 0
	for iter := 0; iter < 400 && checked < 120; iter++ {
		m1 := 1 + gen.Intn(3)
		m2 := 1 + gen.Intn(3)
		n := 4 + gen.Intn(7)
		tc := workload.UniformTwoCluster(gen, m1, m2, n, 1, 20)
		res := exact.Solve(tc)
		if !res.Proven {
			continue
		}
		if !core.HypothesisHolds(tc, res.Opt) {
			continue
		}
		checked++
		a := RunCLB2C(tc)
		if a.Makespan() > 2*res.Opt {
			t.Fatalf("CLB2C makespan %d > 2·OPT (opt=%d, m1=%d m2=%d n=%d)",
				a.Makespan(), res.Opt, m1, m2, n)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d instances satisfied the hypothesis; test too weak", checked)
	}
}

func TestCLB2CPrefersGoodCluster(t *testing.T) {
	// Two machines (one per cluster), two jobs strongly biased to opposite
	// clusters: CLB2C must put each job on its good cluster.
	tc, _ := core.NewTwoCluster(1, 1,
		[]core.Cost{1, 100},
		[]core.Cost{100, 1})
	a := RunCLB2C(tc)
	if a.MachineOf(0) != 0 || a.MachineOf(1) != 1 {
		t.Fatalf("CLB2C misplaced biased jobs: %s", a)
	}
	if a.Makespan() != 1 {
		t.Fatalf("makespan = %d, want 1", a.Makespan())
	}
}

func TestCLB2CDeterministic(t *testing.T) {
	gen := rng.New(7)
	tc := workload.UniformTwoCluster(gen, 3, 3, 30, 1, 100)
	a := RunCLB2C(tc)
	b := RunCLB2C(tc)
	if !a.Equal(b) {
		t.Fatal("CLB2C is not deterministic")
	}
}

func TestCLB2CPairwiseSubproblem(t *testing.T) {
	// Balancing two machines (one per cluster) with CLB2C must never leave
	// one machine empty while the other holds jobs that run faster on the
	// empty machine's cluster and the imbalance exceeds their cost.
	gen := rng.New(8)
	for iter := 0; iter < 50; iter++ {
		tc := workload.UniformTwoCluster(gen, 1, 1, 10, 1, 30)
		a := core.NewAssignment(tc)
		CLB2C(a, tc, []int{0}, []int{1}, allJobs(tc))
		if !a.Complete() {
			t.Fatal("pairwise CLB2C incomplete")
		}
		// The resulting two-machine schedule must be at most 2× the
		// two-machine optimum (Theorem 6 with |M1|=|M2|=1), when the
		// hypothesis holds.
		res := exact.Solve(tc)
		if core.HypothesisHolds(tc, res.Opt) && a.Makespan() > 2*res.Opt {
			t.Fatalf("pairwise CLB2C %d > 2·OPT %d", a.Makespan(), res.Opt)
		}
	}
}

func BenchmarkListScheduling(b *testing.B) {
	gen := rng.New(9)
	id := workload.UniformIdentical(gen, 96, 768, 1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ListScheduling(id, nil)
	}
}

// BenchmarkCLB2CPaperScale runs RunCLB2C at paper scale, 64+32 machines
// and 768 jobs, each iteration on a fresh model over the same costs, so it
// times the ratio order's build as well as the walk.
func BenchmarkCLB2CPaperScale(b *testing.B) {
	benchRunCLB2C(b, workload.UniformTwoCluster(rng.New(10), 64, 32, 768, 1, 1000))
}

// BenchmarkRunCLB2C runs the reference of the Figure 5 threshold workload:
// 8192+8192 machines, 1,638,400 jobs U[1,1000], each iteration on a fresh
// model. Its two 13 MB cost vectors do not fit in cache.
func BenchmarkRunCLB2C(b *testing.B) {
	if testing.Short() {
		b.Skip("1.6M-job instance; -short keeps bench-smoke cheap")
	}
	benchRunCLB2C(b, workload.UniformTwoCluster(rng.New(11), 8192, 8192, 1638400, 1, 1000))
}

// benchRunCLB2C times RunCLB2C on a fresh model over tc's costs per
// iteration: a model caches its ratio order, so a reused one would time
// only the walk.
func benchRunCLB2C(b *testing.B, tc *core.TwoCluster) {
	m1, m2 := tc.ClusterSize(0), tc.ClusterSize(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, _ := core.NewTwoCluster(m1, m2, tc.ClusterCosts(0), tc.ClusterCosts(1))
		RunCLB2C(fresh)
	}
}

// RatioLess orders jobs by increasing cost ratio cluster0/cluster1 using
// exact integer cross multiplication (core.CompareRatios, so a job priced 0
// on both clusters counts as ratio 1/1), with the job index as a
// deterministic tie break: the comparator CLB2C sorted with before it used
// core.OrderJobs, kept as the oracle of the order.
func RatioLess(m core.Clustered, a, b int) bool {
	if c := core.CompareRatios(m.ClusterCost(0, a), m.ClusterCost(1, a), m.ClusterCost(0, b), m.ClusterCost(1, b)); c != 0 {
		return c < 0
	}
	return a < b
}

// SortByRatio sorts jobs in place by increasing cluster0/cluster1 cost
// ratio.
func SortByRatio(m core.Clustered, jobs []int) {
	sort.Slice(jobs, func(x, y int) bool { return RatioLess(m, jobs[x], jobs[y]) })
}

// refLoadHeap is a container/heap min-heap of machines ordered by their
// live load in an assignment, with machine index as a deterministic tie
// break.
type refLoadHeap struct {
	a        *core.Assignment
	machines []int
}

func (h *refLoadHeap) Len() int { return len(h.machines) }
func (h *refLoadHeap) Less(x, y int) bool {
	lx, ly := h.a.Load(h.machines[x]), h.a.Load(h.machines[y])
	if lx != ly {
		return lx < ly
	}
	return h.machines[x] < h.machines[y]
}
func (h *refLoadHeap) Swap(x, y int) { h.machines[x], h.machines[y] = h.machines[y], h.machines[x] }
func (h *refLoadHeap) Push(x any)    { h.machines = append(h.machines, x.(int)) }
func (h *refLoadHeap) Pop() any {
	old := h.machines
	v := old[len(old)-1]
	h.machines = old[:len(old)-1]
	return v
}

// refCLB2C is CLB2C as a comparator sort (SortByRatio) and container/heap
// over the assignment's live loads, placing each job as it goes: the
// reference TestCLB2CMatchesReference holds CLB2C to.
func refCLB2C(a *core.Assignment, m core.Clustered, ms0, ms1, jobs []int) {
	sorted := append([]int(nil), jobs...)
	SortByRatio(m, sorted)
	h0 := &refLoadHeap{a: a, machines: append([]int(nil), ms0...)}
	h1 := &refLoadHeap{a: a, machines: append([]int(nil), ms1...)}
	heap.Init(h0)
	heap.Init(h1)
	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		jHead, jTail := sorted[lo], sorted[hi]
		i0, i1 := h0.machines[0], h1.machines[0]
		c0 := a.Load(i0) + m.ClusterCost(0, jHead)
		c1 := a.Load(i1) + m.ClusterCost(1, jTail)
		if c0 <= c1 {
			a.Assign(jHead, i0)
			lo++
			heap.Fix(h0, 0)
		} else {
			a.Assign(jTail, i1)
			hi--
			heap.Fix(h1, 0)
		}
	}
}

// opaque hides a model's cost vectors, so CLB2C gathers its costs through
// ClusterCost.
type opaque struct{ core.Clustered }

// clb2cFamily draws one job's costs on clusters 0 and 1.
type clb2cFamily struct {
	name string
	draw func(gen *rng.RNG) (core.Cost, core.Cost)
}

// clb2cFamilies are the cost families TestCLB2CMatchesReference covers.
// Every family keeps each cross product CompareRatios forms inside an
// int64, where the comparator reference is exact.
var clb2cFamilies = []clb2cFamily{
	{"random", func(gen *rng.RNG) (core.Cost, core.Cost) {
		return gen.IntRange(1, 1000), gen.IntRange(1, 1000)
	}},
	// Free on one or both clusters: ratios 0, +inf and 0/0 (ordered as
	// 1/1) among ordinary jobs.
	{"zero", func(gen *rng.RNG) (core.Cost, core.Cost) {
		switch gen.Intn(4) {
		case 0:
			return 0, 0
		case 1:
			return 0, gen.IntRange(1, 20)
		case 2:
			return gen.IntRange(1, 20), 0
		default:
			return gen.IntRange(1, 20), gen.IntRange(1, 20)
		}
	}},
	// Equal ratios in different terms, so exact ties fall to the index.
	{"equal-ratios", func(gen *rng.RNG) (core.Cost, core.Cost) {
		r := [][2]core.Cost{{1, 2}, {2, 1}, {1, 1}, {3, 5}}[gen.Intn(4)]
		k := gen.IntRange(1, 40)
		return k * r[0], k * r[1]
	}},
	// Costs near 2^30 against costs near 2^10: distinct ratios near 2^20
	// or 2^-20 that share a float32 image.
	{"shared-image", func(gen *rng.RNG) (core.Cost, core.Cost) {
		big, small := core.Cost(1)<<30+gen.IntRange(0, 1<<10), core.Cost(1)<<10+gen.IntRange(0, 3)
		if gen.Bool() {
			return big, small
		}
		return small, big
	}},
	// Costs past OrderJobs' exact-image bound of 2^11, where distinct
	// ratios can share a float32 image (2949/2948 and 2948/2947 do).
	{"near-bound", func(gen *rng.RNG) (core.Cost, core.Cost) {
		return gen.IntRange(2900, 3000), gen.IntRange(2900, 3000)
	}},
	// Costs on both sides of 2^31, in both clusters; the largest is
	// 2^31+2^29, so every cross product stays below 2^63.
	{"large", func(gen *rng.RNG) (core.Cost, core.Cost) {
		cost := func() core.Cost {
			if gen.Bool() {
				return gen.IntRange(1, 1<<10)
			}
			return gen.IntRange(1<<31-1<<20, 1<<31+1<<29)
		}
		return cost(), cost()
	}},
}

// TestCLB2CMatchesReference requires CLB2C to put every job on the machine
// the comparator-sort reference puts it on: over every cost family, job
// counts 0, 1, 2 and on both sides of the radix cut-over, clusters of one
// machine, machine subsets listed in any order with loads already on them,
// jobs passed in any order or as nil (no jobs), and a model that hides its
// cost vectors.
func TestCLB2CMatchesReference(t *testing.T) {
	gen := rng.New(12)
	for _, f := range clb2cFamilies {
		for trial := 0; trial < 40; trial++ {
			n := []int{0, 1, 2, 3, 63, 64, 65, 200, 700}[trial%9]
			m1, m2 := 1+gen.Intn(4), 1+gen.Intn(4)
			if trial%3 == 0 {
				m2 = 1
			}
			p0, p1 := make([]core.Cost, n), make([]core.Cost, n)
			for j := range p0 {
				p0[j], p1[j] = f.draw(gen)
			}
			tc, err := core.NewTwoCluster(m1, m2, p0, p1)
			if err != nil {
				t.Fatal(err)
			}
			var model core.Clustered = tc
			if trial%2 == 1 {
				model = opaque{tc}
			}
			what := fmt.Sprintf("%s trial %d: m1=%d m2=%d n=%d model=%T", f.name, trial, m1, m2, n, model)

			// The whole instance.
			ref := core.NewAssignment(model)
			refCLB2C(ref, model, seq(0, m1), seq(m1, m1+m2), seq(0, n))
			sameMachines(t, what+" RunCLB2C", RunCLB2C(model), ref)

			// A sub-problem: a third of the jobs already placed anywhere,
			// the rest scheduled on random machine subsets, jobs and
			// machines in random order.
			got, ref := core.NewAssignment(model), core.NewAssignment(model)
			var rest []int
			for j := 0; j < n; j++ {
				if gen.Intn(3) == 0 {
					i := gen.Intn(m1 + m2)
					got.Assign(j, i)
					ref.Assign(j, i)
				} else {
					rest = append(rest, j)
				}
			}
			switch trial % 3 {
			case 0:
				slices.Reverse(rest)
			case 1:
				gen.ShuffleInts(rest)
			}
			ms0, ms1 := subset(gen, seq(0, m1)), subset(gen, seq(m1, m1+m2))
			CLB2C(got, model, ms0, ms1, nil) // no jobs: places nothing
			CLB2C(got, model, ms0, ms1, rest)
			refCLB2C(ref, model, ms0, ms1, rest)
			sameMachines(t, fmt.Sprintf("%s CLB2C on %v+%v", what, ms0, ms1), got, ref)
		}
	}
}

// TestCLB2CMatchesReferenceWideClusters is TestCLB2CMatchesReference at
// 5, 63, 64, 65 and 100 machines per cluster, where the loser trees have
// padded leaves and paths up to seven matches long: over every cost family,
// RunCLB2C on the whole instance, and CLB2C on random machine subsets in
// random order with a third of the jobs already placed, must put every job
// where the comparator-sort and container/heap reference does.
func TestCLB2CMatchesReferenceWideClusters(t *testing.T) {
	gen := rng.New(15)
	widths := []int{5, 63, 64, 65, 100}
	for _, f := range clb2cFamilies {
		for trial, m1 := range widths {
			m2 := widths[(trial+2)%len(widths)]
			n := []int{1, 64, 700, 2000}[trial%4]
			p0, p1 := make([]core.Cost, n), make([]core.Cost, n)
			for j := range p0 {
				p0[j], p1[j] = f.draw(gen)
			}
			tc, err := core.NewTwoCluster(m1, m2, p0, p1)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s: m1=%d m2=%d n=%d", f.name, m1, m2, n)

			ref := core.NewAssignment(tc)
			refCLB2C(ref, tc, seq(0, m1), seq(m1, m1+m2), seq(0, n))
			sameMachines(t, what+" RunCLB2C", RunCLB2C(tc), ref)

			got, ref := core.NewAssignment(tc), core.NewAssignment(tc)
			var rest []int
			for j := 0; j < n; j++ {
				if gen.Intn(3) == 0 {
					i := gen.Intn(m1 + m2)
					got.Assign(j, i)
					ref.Assign(j, i)
				} else {
					rest = append(rest, j)
				}
			}
			gen.ShuffleInts(rest)
			ms0, ms1 := subset(gen, seq(0, m1)), subset(gen, seq(m1, m1+m2))
			CLB2C(got, opaque{tc}, ms0, ms1, rest)
			refCLB2C(ref, tc, ms0, ms1, rest)
			sameMachines(t, fmt.Sprintf("%s CLB2C on %d+%d machines", what, len(ms0), len(ms1)), got, ref)
		}
	}
}

// TestRunCLB2CMatchesReferenceAtScale compares the schedules of a
// 131,072-job instance, whose ratios tie in the thousands.
func TestRunCLB2CMatchesReferenceAtScale(t *testing.T) {
	const m1, m2, n = 256, 128, 1 << 17
	tc := workload.UniformTwoCluster(rng.New(13), m1, m2, n, 1, 1000)
	ref := core.NewAssignment(tc)
	refCLB2C(ref, tc, seq(0, m1), seq(m1, m1+m2), seq(0, n))
	sameMachines(t, "131072 jobs", RunCLB2C(tc), ref)
}

// fuzzCLB2CInstance decodes FuzzCLB2C's input: m1 and m2 in [1, 8] from
// the first two bytes, then up to 64 jobs of five bytes each, a class and
// two 16-bit values v and w. The classes are jobs free on one or both
// clusters; small costs (at most 1024); costs of 1900–3100, around
// OrderJobs' exact-image bound, where 2949/2948 and 2948/2947 share a
// float32 image; and costs near 2^31 on cluster 0, near 2^31 or small on
// cluster 1. No cost exceeds 2^31+2^29, so every cross product fits in an
// int64 and the comparator reference is exact.
func fuzzCLB2CInstance(data []byte) (m1, m2 int, p0, p1 []core.Cost) {
	if len(data) < 2 {
		return 1, 1, nil, nil
	}
	m1, m2 = 1+int(data[0]%8), 1+int(data[1]%8)
	data = data[2:]
	n := min(len(data)/5, 64)
	p0, p1 = make([]core.Cost, n), make([]core.Cost, n)
	small := func(v core.Cost) core.Cost { return 1 + v%1024 }
	big := func(v core.Cost) core.Cost { return 1<<31 - 1<<15 + v<<13 }
	for j := range p0 {
		b := data[5*j : 5*j+5]
		v, w := core.Cost(b[1])|core.Cost(b[2])<<8, core.Cost(b[3])|core.Cost(b[4])<<8
		switch b[0] % 4 {
		case 0:
			switch v % 3 {
			case 0:
				p0[j], p1[j] = 0, 0
			case 1:
				p0[j], p1[j] = 0, small(w)
			default:
				p0[j], p1[j] = small(w), 0
			}
		case 1:
			p0[j], p1[j] = small(v), small(w)
		case 2:
			p0[j], p1[j] = 1900+v%1201, 1900+w%1201
		default:
			p0[j], p1[j] = big(v), big(w)
			if w%2 == 0 {
				p1[j] = small(w)
			}
		}
	}
	return m1, m2, p0, p1
}

// FuzzCLB2C holds CLB2C to the comparator-sort and container/heap
// reference on fuzzed instances (fuzzCLB2CInstance): RunCLB2C on a fresh
// model, on the same model with its cost vectors hidden, and CLB2C on
// random machine subsets with a third of the jobs placed beforehand and
// the rest in shuffled order, drawn from the input's last byte. Every
// schedule must put each job where the reference does and pass Validate.
func FuzzCLB2C(f *testing.F) {
	job := func(class byte, v, w int) []byte {
		return []byte{class, byte(v), byte(v >> 8), byte(w), byte(w >> 8)}
	}
	for class := byte(0); class < 4; class++ {
		data := []byte{3, 2}
		for j := 0; j < 40; j++ {
			data = append(data, job(class, 7919*j+13, 104729*j+7)...)
		}
		f.Add(data)
	}
	mix := []byte{5, 7}
	for j := 0; j < 64; j++ {
		mix = append(mix, job(byte(j), 7919*j+5, 3*j*j+11)...)
	}
	f.Add(mix)
	// 2948/2947 listed before 2949/2948: one float32 image, the exact
	// order the reverse.
	f.Add(slices.Concat([]byte{0, 0}, job(2, 1048, 1047), job(2, 1049, 1048), job(1, 9, 9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, m2, p0, p1 := fuzzCLB2CInstance(data)
		n := len(p0)
		fresh := func() *core.TwoCluster {
			tc, err := core.NewTwoCluster(m1, m2, p0, p1)
			if err != nil {
				t.Fatal(err)
			}
			return tc
		}
		ms0, ms1 := seq(0, m1), seq(m1, m1+m2)
		tc := fresh()
		ref := core.NewAssignment(tc)
		refCLB2C(ref, tc, ms0, ms1, seq(0, n))
		sameMachines(t, "RunCLB2C", RunCLB2C(fresh()), ref)
		sameMachines(t, "RunCLB2C, costs hidden", RunCLB2C(opaque{fresh()}), ref)

		var seed uint64
		if len(data) > 0 {
			seed = uint64(data[len(data)-1])
		}
		gen := rng.New(seed)
		got, ref := core.NewAssignment(tc), core.NewAssignment(tc)
		var rest []int
		for j := 0; j < n; j++ {
			if gen.Intn(3) == 0 {
				i := gen.Intn(m1 + m2)
				got.Assign(j, i)
				ref.Assign(j, i)
			} else {
				rest = append(rest, j)
			}
		}
		gen.ShuffleInts(rest)
		ms0, ms1 = subset(gen, ms0), subset(gen, ms1)
		CLB2C(got, tc, ms0, ms1, rest)
		refCLB2C(ref, tc, ms0, ms1, rest)
		sameMachines(t, fmt.Sprintf("CLB2C on %v+%v, shuffled jobs", ms0, ms1), got, ref)
	})
}

// TestRunCLB2CAllocationPerJob bounds what RunCLB2C allocates at paper
// scale (64+32 machines, 768 jobs) by three words per job plus O(m) words.
// A first call on a model allocates four per-job arrays: the sort keys and
// the radix buffer (8 bytes per job each), the ratio order the model keeps
// and the assignment's job map (4 bytes per job each). The O(m) words are
// the loads, the two loser trees (16 bytes per padded leaf), the two
// machine lists and a constant for the headers. The test measures first
// calls on fresh models over the same costs, as benchRunCLB2C times them,
// and later calls on a model that keeps its order, which skip the radix
// buffer and the order. Replications run CLB2C once each with the collector
// paused, so every byte shows in their peak memory.
//
// TotalAlloc counts the whole process. When the runtime starts an OS thread
// it allocates its own records of the thread on the heap, 5,248 bytes per
// thread on amd64 with Go 1.24, which over 20 calls exceeds the bound's
// headroom. That happens at random, more often on a loaded host, so a
// window in which the count of threads (the threadcreate profile) grew is
// measured again, on new fresh models.
func TestRunCLB2CAllocationPerJob(t *testing.T) {
	const m, n, runs = 96, 768, 20
	tc := workload.UniformTwoCluster(rng.New(10), 64, 32, n, 1, 1000)
	fresh := make([]*core.TwoCluster, runs)
	renew := func() {
		for r := range fresh {
			var err error
			if fresh[r], err = core.NewTwoCluster(64, 32, tc.ClusterCosts(0), tc.ClusterCosts(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	limit := uint64(8 * (3*n + 4*m + 32))
	threads := pprof.Lookup("threadcreate")
	perCall := func(prepare func(), run func(r int)) uint64 {
		for attempt := 1; ; attempt++ {
			prepare()
			var before, after runtime.MemStats
			started := threads.Count()
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				run(r)
			}
			runtime.ReadMemStats(&after)
			if threads.Count() == started || attempt == 3 {
				return (after.TotalAlloc - before.TotalAlloc) / runs
			}
		}
	}
	if got := perCall(renew, func(r int) { RunCLB2C(fresh[r]) }); got > limit {
		t.Errorf("a first RunCLB2C on a model allocates %d bytes, want at most %d", got, limit)
	}
	RunCLB2C(tc)
	if got := perCall(func() {}, func(int) { RunCLB2C(tc) }); got > limit {
		t.Errorf("a later RunCLB2C on a model allocates %d bytes, want at most %d", got, limit)
	}
}

// seq returns lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// subset returns a non-empty random subset of s in random order.
func subset(gen *rng.RNG, s []int) []int {
	out := slices.Clone(s)
	gen.ShuffleInts(out)
	return out[:1+gen.Intn(len(out))]
}

// sameMachines fails unless got places every job where want does and its
// loads and count are those its placements sum to (Validate): CLB2C writes
// the loads its trees kept, not ones Assign summed.
func sameMachines(t *testing.T, what string, got, want *core.Assignment) {
	t.Helper()
	for j := 0; j < want.Model().NumJobs(); j++ {
		if got.MachineOf(j) != want.MachineOf(j) {
			t.Fatalf("%s: job %d on machine %d, reference %d", what, j, got.MachineOf(j), want.MachineOf(j))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestRunCLB2CConcurrentFirstCall runs RunCLB2C from four goroutines on a
// fresh model, so they race to build its cached ratio order: every schedule
// must match the one on a model whose order was built first.
func TestRunCLB2CConcurrentFirstCall(t *testing.T) {
	base := workload.UniformTwoCluster(rng.New(14), 8, 5, 3000, 1, 40)
	want := RunCLB2C(base)
	fresh, err := core.NewTwoCluster(8, 5, base.ClusterCosts(0), base.ClusterCosts(1))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*core.Assignment, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = RunCLB2C(fresh)
		}(g)
	}
	wg.Wait()
	for g, a := range got {
		sameMachines(t, fmt.Sprintf("goroutine %d", g), a, want)
	}
}
