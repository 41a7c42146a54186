package central

import (
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

func BenchmarkCLB2CPaperScale(b *testing.B) {
	gen := rng.New(10)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCLB2C(tc)
	}
}
