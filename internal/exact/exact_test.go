package exact

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// bruteForce enumerates all m^n assignments. Ground truth for the solver.
func bruteForce(m core.CostModel) core.Cost {
	n := m.NumJobs()
	mm := m.NumMachines()
	best := core.Cost(1) << 62
	machOf := make([]int, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			load := make([]core.Cost, mm)
			for jj, i := range machOf {
				load[i] += m.Cost(i, jj)
			}
			var mx core.Cost
			for _, l := range load {
				if l > mx {
					mx = l
				}
			}
			if mx < best {
				best = mx
			}
			return
		}
		for i := 0; i < mm; i++ {
			machOf[j] = i
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	gen := rng.New(2024)
	for iter := 0; iter < 120; iter++ {
		m := 2 + gen.Intn(2) // 2..3 machines
		n := 1 + gen.Intn(6) // 1..6 jobs
		d := workload.UniformDense(gen, m, n, 1, 20)
		want := bruteForce(d)
		res := Solve(d)
		if !res.Proven {
			t.Fatal("Solve did not prove optimality on a tiny instance")
		}
		if res.Opt != want {
			t.Fatalf("Solve = %d, brute force = %d (m=%d n=%d)", res.Opt, want, m, n)
		}
		if res.Assignment == nil || !res.Assignment.Complete() {
			t.Fatal("Solve returned incomplete assignment")
		}
		if res.Assignment.Makespan() != res.Opt {
			t.Fatalf("assignment makespan %d != reported opt %d", res.Assignment.Makespan(), res.Opt)
		}
	}
}

func TestSolveIdenticalSymmetryBreaking(t *testing.T) {
	// On identical machines symmetry breaking should keep the node count
	// small; a unit-jobs instance must produce a perfectly balanced OPT.
	id, _ := core.NewIdentical(4, []core.Cost{1, 1, 1, 1, 1, 1, 1, 1})
	res := Solve(id)
	if res.Opt != 2 {
		t.Fatalf("Opt = %d, want 2", res.Opt)
	}
	if res.Nodes > 100000 {
		t.Fatalf("symmetry breaking ineffective: %d nodes", res.Nodes)
	}
}

func TestSolveRespectsLowerBound(t *testing.T) {
	gen := rng.New(4)
	for iter := 0; iter < 50; iter++ {
		d := workload.UniformDense(gen, 3, 7, 1, 30)
		res := Solve(d)
		if lb := core.LowerBound(d); res.Opt < lb {
			t.Fatalf("Opt %d below lower bound %d", res.Opt, lb)
		}
	}
}

func TestSolveTableIOptimum(t *testing.T) {
	d, _ := workload.WorkStealingTrap(100)
	res := Solve(d)
	if res.Opt != 2 {
		t.Fatalf("Table I optimum = %d, want 2", res.Opt)
	}
}

func TestSolveTableIIOptimum(t *testing.T) {
	d, _ := workload.PairwiseTrap(50)
	res := Solve(d)
	if res.Opt != 1 {
		t.Fatalf("Table II optimum = %d, want 1", res.Opt)
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	gen := rng.New(9)
	d := workload.UniformDense(gen, 4, 12, 1, 1000)
	res := SolveBudget(d, 10)
	if res.Proven {
		t.Fatal("10-node budget cannot prove optimality on a 4x12 instance")
	}
	// Even unproven, the incumbent must be a feasible makespan.
	if res.Assignment == nil || res.Assignment.Makespan() != res.Opt {
		t.Fatal("unproven result must still carry its incumbent")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	id, _ := core.NewIdentical(3, nil)
	res := Solve(id)
	if res.Opt != 0 || !res.Proven {
		t.Fatalf("empty instance: opt=%d proven=%v", res.Opt, res.Proven)
	}
}

func TestSolveTwoClusterAgainstFractionalLB(t *testing.T) {
	gen := rng.New(31)
	for iter := 0; iter < 40; iter++ {
		tc := workload.UniformTwoCluster(gen, 2, 2, 8, 1, 25)
		res := Solve(tc)
		if !res.Proven {
			t.Fatal("small two-cluster instance not proven")
		}
		if lb := core.TwoClusterFractionalLB(tc); float64(res.Opt) < lb-1e-9 {
			t.Fatalf("Opt %d below fractional LB %v", res.Opt, lb)
		}
	}
}

func BenchmarkSolve3x8(b *testing.B) {
	gen := rng.New(7)
	d := workload.UniformDense(gen, 3, 8, 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(d)
	}
}

// FuzzTwoClusterFractionalLB holds core.TwoClusterFractionalLB to the exact
// optimum: a lower bound may never exceed it. It decodes cluster sizes in
// [1, 3] and up to 8 jobs, two bytes each, with costs in [0, 30], so jobs
// free on one or both clusters and tied ratios are common; the bound once
// rose above the optimum on jobs free on both clusters.
func FuzzTwoClusterFractionalLB(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{0, 0, 3, 5})
	f.Add(byte(1), byte(2), []byte{0, 0, 0, 7, 9, 0, 4, 4, 8, 8, 30, 1})
	f.Fuzz(func(t *testing.T, m1, m2 byte, costs []byte) {
		n := min(len(costs)/2, 8)
		p0, p1 := make([]core.Cost, n), make([]core.Cost, n)
		for j := range p0 {
			p0[j] = core.Cost(costs[2*j] % 31)
			p1[j] = core.Cost(costs[2*j+1] % 31)
		}
		tc, err := core.NewTwoCluster(1+int(m1%3), 1+int(m2%3), p0, p1)
		if err != nil {
			t.Fatal(err)
		}
		res := Solve(tc)
		if !res.Proven {
			t.Fatal("instance not proven optimal")
		}
		if lb := core.TwoClusterFractionalLB(tc); float64(res.Opt) < lb-1e-9 {
			t.Fatalf("optimum %d below the fractional lower bound %v (p0 %v, p1 %v)", res.Opt, lb, p0, p1)
		}
	})
}
