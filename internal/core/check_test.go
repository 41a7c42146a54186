package core

import (
	"slices"
	"testing"
)

// TestCheckerFastPaths verifies that every structured model catches a
// negative cost through its own Check fast path (the constructors do not
// scan costs, so CheckModel is where the invariant is enforced).
func TestCheckerFastPaths(t *testing.T) {
	id, _ := NewIdentical(3, []Cost{4, -1, 2})
	rel, _ := NewRelated([]int64{1, 2}, []Cost{5, -3})
	ty, _ := NewTyped([][]Cost{{1, 2}, {3, -4}}, []int{0, 1, 0})
	tc, _ := NewTwoCluster(1, 1, []Cost{1, 2}, []Cost{3, -5})
	den := MustDense([][]Cost{{1, 2}, {3, -6}})
	for name, m := range map[string]CostModel{
		"identical": id, "related": rel, "typed": ty, "twocluster": tc, "dense": den,
	} {
		if _, ok := m.(Checker); !ok {
			t.Errorf("%s: does not implement Checker", name)
		}
		if err := CheckModel(m); err == nil {
			t.Errorf("%s: CheckModel accepted a negative cost", name)
		}
	}
	okTy, _ := NewTyped([][]Cost{{1, 2}, {3, 4}}, []int{0, 1, 0})
	if err := CheckModel(okTy); err != nil {
		t.Errorf("valid typed model rejected: %v", err)
	}
}

// opaqueModel is a CostModel with no Checker implementation, standing in for
// a user-supplied model whose only interface is the Cost function.
type opaqueModel struct {
	m, n int
	cost Cost
}

func (o opaqueModel) NumMachines() int   { return o.m }
func (o opaqueModel) NumJobs() int       { return o.n }
func (o opaqueModel) Cost(_, _ int) Cost { return o.cost }

// TestCheckModelSampledFallback checks that an opaque model far above the
// cell budget is validated by sampling: an everywhere-negative 100k×10M
// model is rejected, a non-negative one accepted, and neither takes the
// 10¹²-lookup full scan to answer (the test would time out if it did).
func TestCheckModelSampledFallback(t *testing.T) {
	if err := CheckModel(opaqueModel{m: 100_000, n: 10_000_000, cost: -1}); err == nil {
		t.Error("sampled CheckModel accepted an everywhere-negative model")
	}
	if err := CheckModel(opaqueModel{m: 100_000, n: 10_000_000, cost: 7}); err != nil {
		t.Errorf("sampled CheckModel rejected a valid model: %v", err)
	}
	// Small opaque models still get the exact full scan.
	if err := CheckModel(opaqueModel{m: 4, n: 4, cost: -1}); err == nil {
		t.Error("full-scan CheckModel accepted a negative model")
	}
}

// TestJobsOfTypeBuckets pins the lazy-bucket contract: increasing job order,
// empty types served as empty slices, and zero allocations per call once the
// buckets exist.
func TestJobsOfTypeBuckets(t *testing.T) {
	ty, err := NewTyped([][]Cost{{1, 2, 3}}, []int{2, 0, 2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]int{0: {1, 4}, 1: {}, 2: {0, 2, 3}}
	for typ, jobs := range map[int][]int{0: ty.JobsOfType(0), 1: ty.JobsOfType(1), 2: ty.JobsOfType(2)} {
		if len(jobs) != len(want[typ]) {
			t.Fatalf("JobsOfType(%d) = %v, want %v", typ, jobs, want[typ])
		}
		for x, j := range jobs {
			if j != want[typ][x] {
				t.Fatalf("JobsOfType(%d) = %v, want %v", typ, jobs, want[typ])
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() { _ = ty.JobsOfType(2) })
	if allocs != 0 {
		t.Errorf("JobsOfType allocates %v per call after the bucket build, want 0", allocs)
	}
}

// TestEnsureIndexPresized pins the build of the engines' per-machine job
// lists (FillJobLists) at its counted shape: one allocation, the counts,
// regardless of m and n (the lists are cut from the caller's backing array),
// and every list equal to the O(n) Jobs scan, in increasing job order, with
// unassigned jobs on no list.
func TestEnsureIndexPresized(t *testing.T) {
	model, _ := NewIdentical(257, make([]Cost, 10_000))
	machineOf := make([]int, model.NumJobs())
	for j := range machineOf {
		machineOf[j] = j % 257
		if j%5 == 0 {
			machineOf[j] = -1 // holes must not corrupt the counted layout
		}
	}
	for _, a := range []*Assignment{RoundRobin(model), mustFromMachineOf(t, model, machineOf)} {
		lists := make([][]int, model.NumMachines())
		backing := make([]int, a.NumAssigned())
		allocs := testing.AllocsPerRun(8, func() { a.FillJobLists(lists, backing) })
		if allocs > 1 {
			t.Errorf("FillJobLists: %v allocations per build, want <= 1 (counts)", allocs)
		}
		total := 0
		for i, list := range lists {
			if want := a.Jobs(i); !slices.Equal(list, want) {
				t.Fatalf("machine %d: list %v, Jobs scan %v", i, list, want)
			}
			total += len(list)
		}
		if total != a.NumAssigned() {
			t.Fatalf("lists hold %d jobs, %d assigned", total, a.NumAssigned())
		}
	}
}

func mustFromMachineOf(t *testing.T, m CostModel, machineOf []int) *Assignment {
	t.Helper()
	a, err := FromMachineOf(m, machineOf)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
