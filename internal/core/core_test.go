package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"hetlb/internal/rng"
)

func TestDenseBasics(t *testing.T) {
	d := MustDense([][]Cost{
		{1, 2, 3},
		{4, 5, 6},
	})
	if d.NumMachines() != 2 || d.NumJobs() != 3 {
		t.Fatalf("bad dims: %d machines, %d jobs", d.NumMachines(), d.NumJobs())
	}
	if d.Cost(1, 2) != 6 {
		t.Fatalf("Cost(1,2) = %d, want 6", d.Cost(1, 2))
	}
	if err := CheckModel(d); err != nil {
		t.Fatal(err)
	}
}

func TestNewDenseRejectsRagged(t *testing.T) {
	if _, err := NewDense([][]Cost{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := NewDense(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestCheckModelRejectsNegative(t *testing.T) {
	d := MustDense([][]Cost{{1, -2}})
	if err := CheckModel(d); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestIdentical(t *testing.T) {
	id, err := NewIdentical(4, []Cost{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j, want := range []Cost{5, 7, 9} {
			if id.Cost(i, j) != want {
				t.Fatalf("Cost(%d,%d) = %d, want %d", i, j, id.Cost(i, j), want)
			}
		}
	}
	if _, err := NewIdentical(0, nil); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestRelatedCeilingDivision(t *testing.T) {
	r, err := NewRelated([]int64{1, 2, 3}, []Cost{7})
	if err != nil {
		t.Fatal(err)
	}
	wants := []Cost{7, 4, 3} // ceil(7/1), ceil(7/2), ceil(7/3)
	for i, want := range wants {
		if got := r.Cost(i, 0); got != want {
			t.Fatalf("Cost(%d,0) = %d, want %d", i, got, want)
		}
	}
	if _, err := NewRelated([]int64{0}, nil); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestRelatedFasterNeverSlower(t *testing.T) {
	gen := rng.New(1)
	for iter := 0; iter < 200; iter++ {
		size := gen.IntRange(1, 1000)
		s1 := gen.IntRange(1, 20)
		s2 := s1 + gen.IntRange(0, 20)
		r, err := NewRelated([]int64{s1, s2}, []Cost{size})
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost(1, 0) > r.Cost(0, 0) {
			t.Fatalf("faster machine slower: size=%d speeds=(%d,%d)", size, s1, s2)
		}
	}
}

func TestTyped(t *testing.T) {
	ty, err := NewTyped([][]Cost{{1, 10}, {10, 1}}, []int{0, 1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ty.NumTypes() != 2 || ty.NumJobs() != 5 {
		t.Fatalf("bad dims: %d types, %d jobs", ty.NumTypes(), ty.NumJobs())
	}
	if ty.Cost(0, 0) != 1 || ty.Cost(0, 1) != 10 || ty.Cost(1, 1) != 1 {
		t.Fatal("typed costs wrong")
	}
	if got := ty.JobsOfType(1); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("JobsOfType(1) = %v", got)
	}
	if _, err := NewTyped([][]Cost{{1}}, []int{0, 1}); err == nil {
		t.Fatal("out-of-range type accepted")
	}
	if _, err := NewTyped([][]Cost{{1, 2}, {3}}, nil); err == nil {
		t.Fatal("ragged type matrix accepted")
	}
}

func TestTwoCluster(t *testing.T) {
	tc, err := NewTwoCluster(2, 3, []Cost{1, 4}, []Cost{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumMachines() != 5 {
		t.Fatalf("NumMachines = %d", tc.NumMachines())
	}
	for i := 0; i < 2; i++ {
		if tc.ClusterOf(i) != 0 {
			t.Fatalf("machine %d should be cluster 0", i)
		}
	}
	for i := 2; i < 5; i++ {
		if tc.ClusterOf(i) != 1 {
			t.Fatalf("machine %d should be cluster 1", i)
		}
	}
	if tc.Cost(0, 1) != 4 || tc.Cost(4, 1) != 2 {
		t.Fatal("cluster costs wrong")
	}
	if tc.ClusterSize(0) != 2 || tc.ClusterSize(1) != 3 {
		t.Fatal("cluster sizes wrong")
	}
	if _, err := NewTwoCluster(0, 1, nil, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewTwoCluster(1, 1, []Cost{1}, []Cost{1, 2}); err == nil {
		t.Fatal("mismatched job vectors accepted")
	}
}

func TestMinMaxCost(t *testing.T) {
	d := MustDense([][]Cost{
		{5, Infinite},
		{3, 7},
		{9, Infinite},
	})
	c, i := MinCost(d, 0)
	if c != 3 || i != 1 {
		t.Fatalf("MinCost = (%d, %d)", c, i)
	}
	if MaxCost(d, 0) != 9 {
		t.Fatalf("MaxCost = %d", MaxCost(d, 0))
	}
	if MaxCost(d, 1) != 7 {
		t.Fatalf("MaxCost job1 = %d", MaxCost(d, 1))
	}
}

func TestMaxCostAllInfinite(t *testing.T) {
	d := MustDense([][]Cost{{Infinite}, {Infinite}})
	if MaxCost(d, 0) != Infinite {
		t.Fatal("MaxCost of an everywhere-infinite job should be Infinite")
	}
}

func TestAssignmentLifecycle(t *testing.T) {
	d := MustDense([][]Cost{
		{1, 2, 3},
		{4, 5, 6},
	})
	a := NewAssignment(d)
	if a.Complete() {
		t.Fatal("empty assignment reported complete")
	}
	a.Assign(0, 0)
	a.Assign(1, 1)
	a.Assign(2, 0)
	if !a.Complete() || a.NumAssigned() != 3 {
		t.Fatal("assignment should be complete")
	}
	if a.Load(0) != 4 || a.Load(1) != 5 {
		t.Fatalf("loads = %d, %d", a.Load(0), a.Load(1))
	}
	if a.Makespan() != 5 || a.ArgMakespan() != 1 {
		t.Fatalf("makespan = %d on %d", a.Makespan(), a.ArgMakespan())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	a.Move(1, 0) // now machine 0 has jobs 0,1,2 = 1+2+3 = 6
	if a.Load(0) != 6 || a.Load(1) != 0 {
		t.Fatalf("after move loads = %d, %d", a.Load(0), a.Load(1))
	}
	min, arg := a.MinLoad()
	if min != 0 || arg != 1 {
		t.Fatalf("MinLoad = (%d, %d)", min, arg)
	}
	if got := a.Jobs(0); len(got) != 3 {
		t.Fatalf("Jobs(0) = %v", got)
	}
	if a.TotalWork() != 6 {
		t.Fatalf("TotalWork = %d", a.TotalWork())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignPanicsOnDouble(t *testing.T) {
	d := MustDense([][]Cost{{1}})
	a := NewAssignment(d)
	a.Assign(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double assign did not panic")
		}
	}()
	a.Assign(0, 0)
}

// TestMachineCountsFit32Bits holds the constructors to what an Assignment
// can store, math.MaxInt32 machines, without allocating per machine: the
// models keep only the counts, and NewAssignment panics before its load
// vector on an opaque model beyond the limit. The counts are computed at
// run time, so the test also builds where int has 32 bits.
func TestMachineCountsFit32Bits(t *testing.T) {
	limit := math.MaxInt32
	over := strconv.FormatInt(int64(limit)+1, 10)
	if _, err := NewTwoCluster(limit/2+1, limit/2+1, nil, nil); err == nil || !strings.Contains(err.Error(), over) {
		t.Fatalf("NewTwoCluster at %s machines: error %v, want one naming the count", over, err)
	}
	if _, err := NewTwoCluster(limit/2+1, limit/2, nil, nil); err != nil {
		t.Fatalf("NewTwoCluster at %d machines: %v", limit, err)
	}
	if _, err := NewIdentical(limit, nil); err != nil {
		t.Fatalf("NewIdentical at %d machines: %v", limit, err)
	}
	if strconv.IntSize < 64 {
		return // no int count exceeds the limit
	}
	m := limit
	m++
	if _, err := NewIdentical(m, nil); err == nil || !strings.Contains(err.Error(), over) {
		t.Fatalf("NewIdentical at %d machines: error %v, want one naming the count", m, err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), over) {
			t.Fatalf("NewAssignment at %d machines: panic %v, want one naming the count", m, r)
		}
	}()
	NewAssignment(opaqueModel{m: m, n: 1})
}

func TestUnassignPanicsOnUnassigned(t *testing.T) {
	d := MustDense([][]Cost{{1}})
	a := NewAssignment(d)
	defer func() {
		if recover() == nil {
			t.Fatal("unassign of unassigned job did not panic")
		}
	}()
	a.Unassign(0)
}

func TestCloneIsDeep(t *testing.T) {
	d := MustDense([][]Cost{{1, 2}, {3, 4}})
	a := RoundRobin(d)
	b := a.Clone()
	b.Move(0, 1)
	if a.MachineOf(0) != 0 {
		t.Fatal("mutating clone affected original")
	}
	if a.Equal(b) {
		t.Fatal("Equal should be false after divergence")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("fresh clone should be Equal")
	}
}

func TestRoundRobinAndAllOn(t *testing.T) {
	id, _ := NewIdentical(3, []Cost{1, 1, 1, 1, 1, 1, 1})
	a := RoundRobin(id)
	if a.Load(0) != 3 || a.Load(1) != 2 || a.Load(2) != 2 {
		t.Fatalf("round robin loads: %v", a.Loads())
	}
	for _, m := range []int{1, 3, 7} {
		sizes := make([]Cost, 23)
		for j := range sizes {
			sizes[j] = Cost(j)
		}
		id, _ := NewIdentical(m, sizes)
		a := RoundRobin(id)
		for j := range sizes {
			if a.MachineOf(j) != j%m {
				t.Fatalf("round robin on %d machines put job %d on machine %d, want %d", m, j, a.MachineOf(j), j%m)
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	b := AllOnMachine(id, 1)
	if b.Load(1) != 7 || b.Load(0) != 0 {
		t.Fatalf("all-on loads: %v", b.Loads())
	}
}

func TestFromMachineOf(t *testing.T) {
	d := MustDense([][]Cost{{1, 2, 3}, {4, 5, 6}})
	a, err := FromMachineOf(d, []int{1, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.MachineOf(0) != 1 || a.MachineOf(1) != -1 || a.MachineOf(2) != 0 {
		t.Fatal("mapping not honored")
	}
	if _, err := FromMachineOf(d, []int{0}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := FromMachineOf(d, []int{0, 0, 9}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestUnplaced(t *testing.T) {
	d := MustDense([][]Cost{{1, 2, 3, 4}, {4, 5, 6, 7}})
	a, err := FromMachineOf(d, []int{1, -1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Unplaced(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Unplaced = %v, want [1 3]", got)
	}
	a.Assign(1, 0)
	a.Assign(3, 1)
	if got := a.Unplaced(); got != nil {
		t.Fatalf("complete assignment Unplaced = %v, want nil", got)
	}
}

func TestSignatureDistinguishes(t *testing.T) {
	d := MustDense([][]Cost{{1, 2}, {3, 4}})
	a, _ := FromMachineOf(d, []int{0, 1})
	b, _ := FromMachineOf(d, []int{1, 0})
	if a.Signature() == b.Signature() {
		t.Fatal("different assignments share a signature")
	}
	c, _ := FromMachineOf(d, []int{0, 1})
	if a.Signature() != c.Signature() {
		t.Fatal("equal assignments have different signatures")
	}
}

func TestSortedLoads(t *testing.T) {
	d := MustDense([][]Cost{{5, 1}, {5, 1}, {5, 1}})
	a, _ := FromMachineOf(d, []int{2, 0})
	ls := a.SortedLoads()
	if ls[0] != 0 || ls[1] != 1 || ls[2] != 5 {
		t.Fatalf("SortedLoads = %v", ls)
	}
}

func TestLowerBoundSimple(t *testing.T) {
	// One job of cost 10 everywhere: LB must be 10.
	d := MustDense([][]Cost{{10}, {10}})
	if LowerBound(d) != 10 {
		t.Fatalf("LowerBound = %d", LowerBound(d))
	}
	// Four unit jobs on two machines: LB = ceil(4/2) = 2.
	id, _ := NewIdentical(2, []Cost{1, 1, 1, 1})
	if LowerBound(id) != 2 {
		t.Fatalf("LowerBound = %d", LowerBound(id))
	}
	if IdenticalLowerBound(id) != 2 {
		t.Fatalf("IdenticalLowerBound = %d", IdenticalLowerBound(id))
	}
}

func TestIdenticalLowerBoundMaxJob(t *testing.T) {
	id, _ := NewIdentical(4, []Cost{9, 1, 1})
	if IdenticalLowerBound(id) != 9 {
		t.Fatalf("IdenticalLowerBound = %d, want 9", IdenticalLowerBound(id))
	}
}

func TestLowerBoundNeverExceedsAnySchedule(t *testing.T) {
	// Property: LowerBound(model) <= makespan of any complete assignment.
	gen := rng.New(77)
	for iter := 0; iter < 300; iter++ {
		m := 1 + gen.Intn(4)
		n := 1 + gen.Intn(8)
		p := make([][]Cost, m)
		for i := range p {
			p[i] = make([]Cost, n)
			for j := range p[i] {
				p[i][j] = gen.IntRange(1, 50)
			}
		}
		d := MustDense(p)
		lb := LowerBound(d)
		a := NewAssignment(d)
		for j := 0; j < n; j++ {
			a.Assign(j, gen.Intn(m))
		}
		if lb > a.Makespan() {
			t.Fatalf("LowerBound %d exceeds a feasible makespan %d", lb, a.Makespan())
		}
	}
}

func TestTwoClusterFractionalLB(t *testing.T) {
	// Two machines (1+1), two jobs each costing 4 on their "good" cluster
	// and 100 on the other: fractional LB should be 4 (each job on its
	// cluster).
	tc, _ := NewTwoCluster(1, 1, []Cost{4, 100}, []Cost{100, 4})
	lb := TwoClusterFractionalLB(tc)
	if lb < 3.999 || lb > 4.001 {
		t.Fatalf("fractional LB = %v, want 4", lb)
	}
}

func TestTwoClusterFractionalLBIsLowerBound(t *testing.T) {
	// A job free on both clusters (job 1) must not break the ratio order:
	// if job 0 (ratio 2) stays before job 2 (ratio 1/2), the bound reads 2,
	// but job 2 on cluster 0 and job 0 on cluster 1 give makespan 1.
	free, _ := NewTwoCluster(1, 1, []Cost{2, 0, 1}, []Cost{1, 0, 2})
	if lb := TwoClusterFractionalLB(free); lb > 1 {
		t.Fatalf("fractional LB %v exceeds the optimum 1 with a job free on both clusters", lb)
	}
	// Property: the fractional bound never exceeds the makespan of any
	// feasible integral assignment.
	gen := rng.New(101)
	for iter := 0; iter < 200; iter++ {
		m1 := 1 + gen.Intn(3)
		m2 := 1 + gen.Intn(3)
		n := 1 + gen.Intn(8)
		p0 := make([]Cost, n)
		p1 := make([]Cost, n)
		for j := 0; j < n; j++ {
			p0[j] = gen.IntRange(1, 30)
			p1[j] = gen.IntRange(1, 30)
		}
		tc, err := NewTwoCluster(m1, m2, p0, p1)
		if err != nil {
			t.Fatal(err)
		}
		lb := TwoClusterFractionalLB(tc)
		a := NewAssignment(tc)
		for j := 0; j < n; j++ {
			a.Assign(j, gen.Intn(m1+m2))
		}
		if lb > float64(a.Makespan())+1e-9 {
			t.Fatalf("fractional LB %v exceeds feasible makespan %d", lb, a.Makespan())
		}
	}
}

func TestTwoClusterFractionalLBEmpty(t *testing.T) {
	tc, _ := NewTwoCluster(2, 2, nil, nil)
	if lb := TwoClusterFractionalLB(tc); lb != 0 {
		t.Fatalf("empty instance LB = %v", lb)
	}
}

func TestPMaxSkipsInfinite(t *testing.T) {
	d := MustDense([][]Cost{{3, Infinite}, {8, 2}})
	if PMax(d) != 8 {
		t.Fatalf("PMax = %d", PMax(d))
	}
}

func TestHypothesisHolds(t *testing.T) {
	d := MustDense([][]Cost{{3, 5}, {4, 2}})
	if !HypothesisHolds(d, 5) {
		t.Fatal("hypothesis should hold at opt=5")
	}
	if HypothesisHolds(d, 4) {
		t.Fatal("hypothesis should fail at opt=4")
	}
}

func TestTotalWorkOn(t *testing.T) {
	d := MustDense([][]Cost{{1, 2, 3}, {4, 5, 6}})
	if TotalWorkOn(d, 0) != 6 || TotalWorkOn(d, 1) != 15 {
		t.Fatal("TotalWorkOn wrong")
	}
}

func TestLoadConservationProperty(t *testing.T) {
	// quick.Check: moving jobs around never changes the identity
	// sum-of-loads == sum of costs on current machines, as checked by
	// Validate.
	id, _ := NewIdentical(4, []Cost{3, 1, 4, 1, 5, 9, 2, 6})
	a := RoundRobin(id)
	gen := rng.New(5)
	f := func(seed uint64) bool {
		g := rng.New(seed ^ gen.Uint64())
		for k := 0; k < 16; k++ {
			a.Move(g.Intn(8), g.Intn(4))
		}
		if err := a.Validate(); err != nil {
			return false
		}
		return a.TotalWork() == 31 // 3+1+4+1+5+9+2+6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
