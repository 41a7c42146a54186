package protocol

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func sumCosts(m core.CostModel, machine int, jobs []int) core.Cost {
	var s core.Cost
	for _, j := range jobs {
		s += m.Cost(machine, j)
	}
	return s
}

func TestMinMoveImbalanceBounded(t *testing.T) {
	// After the placed step the pair's imbalance is at most the largest
	// pooled job — the same class as the rebuild kernel.
	gen := rng.New(1)
	for iter := 0; iter < 100; iter++ {
		n := 1 + gen.Intn(12)
		id := workload.UniformIdentical(gen, 2, n, 1, 20)
		p := SameCostMinMove{Model: id}
		var onI, onJ []int
		for j := 0; j < n; j++ {
			if gen.Bool() {
				onI = append(onI, j)
			} else {
				onJ = append(onJ, j)
			}
		}
		toI, toJ := placed(p, 0, 1, onI, onJ)
		if len(toI)+len(toJ) != n {
			t.Fatal("jobs lost")
		}
		d := sumCosts(id, 0, toI) - sumCosts(id, 1, toJ)
		if d < 0 {
			d = -d
		}
		var pmax core.Cost
		for j := 0; j < n; j++ {
			if s := id.Size(j); s > pmax {
				pmax = s
			}
		}
		if d > pmax {
			t.Fatalf("imbalance %d exceeds pmax %d", d, pmax)
		}
	}
}

func TestMinMoveMovesFewerJobs(t *testing.T) {
	// Against an almost balanced placement, the rebuild kernel may
	// reshuffle identities while min-move must touch at most a few jobs.
	id, _ := core.NewIdentical(2, []core.Cost{5, 5, 5, 5, 5, 5})
	// 4 vs 2 jobs: one transfer fixes it.
	onI := []int{0, 1, 2, 3}
	onJ := []int{4, 5}
	p := SameCostMinMove{Model: id}
	toI, toJ := placed(p, 0, 1, onI, onJ)
	if len(toI) != 3 || len(toJ) != 3 {
		t.Fatalf("expected 3|3 split, got %d|%d", len(toI), len(toJ))
	}
	moved := 0
	in := map[int]bool{0: true, 1: true, 2: true, 3: true}
	for _, j := range toJ {
		if in[j] {
			moved++
		}
	}
	if moved != 1 {
		t.Fatalf("min-move moved %d jobs, want 1", moved)
	}
}

func TestMinMoveFixedPointIsIdempotent(t *testing.T) {
	gen := rng.New(2)
	id := workload.UniformIdentical(gen, 2, 10, 1, 30)
	p := SameCostMinMove{Model: id}
	var onI, onJ []int
	for j := 0; j < 10; j++ {
		if gen.Bool() {
			onI = append(onI, j)
		} else {
			onJ = append(onJ, j)
		}
	}
	toI, toJ := placed(p, 0, 1, onI, onJ)
	againI, againJ := placed(p, 0, 1, toI, toJ)
	if len(againI) != len(toI) || len(againJ) != len(toJ) {
		t.Fatal("second application changed the split")
	}
	for k := range toI {
		if againI[k] != toI[k] {
			t.Fatal("second application changed the split")
		}
	}
}

func TestDLB2CMinMoveCrossClusterStillCorrects(t *testing.T) {
	// Cross-cluster balancing must still fix affinity even in the
	// min-move variant.
	tc, _ := core.NewTwoCluster(1, 1,
		[]core.Cost{100, 100, 1},
		[]core.Cost{1, 1, 100})
	p := DLB2CMinMove{Model: tc}
	toI, toJ := placed(p, 0, 1, []int{0, 1}, []int{2})
	// Jobs 0,1 belong on cluster 1; job 2 on cluster 0.
	if len(toI) != 1 || toI[0] != 2 || len(toJ) != 2 {
		t.Fatalf("affinity not corrected: %v | %v", toI, toJ)
	}
}

func TestMinMoveReducesTrafficAtSimilarQuality(t *testing.T) {
	// Head-to-head over random homogeneous systems: at the same step
	// budget, the min-move variant must migrate substantially fewer jobs
	// while landing at a similar makespan.
	gen := rng.New(3)
	id := workload.UniformIdentical(gen, 8, 96, 1, 100)
	run := func(p Protocol, seed uint64) (core.Cost, int) {
		a := core.AllOnMachine(id, 0)
		g := rng.New(seed)
		moves := 0
		for s := 0; s < 400; s++ {
			i := g.Intn(8)
			j := g.Pick(8, i)
			before := snapshot(a, i, j)
			Balance(p, a, i, j)
			moves += diffs(a, before)
		}
		return a.Makespan(), moves
	}
	cmRebuild, movesRebuild := run(SameCost{Model: id}, 9)
	cmMin, movesMin := run(SameCostMinMove{Model: id}, 9)
	if movesMin*2 >= movesRebuild {
		t.Fatalf("min-move did not halve traffic: %d vs %d", movesMin, movesRebuild)
	}
	// Quality within 10% of each other.
	if float64(cmMin) > 1.1*float64(cmRebuild) {
		t.Fatalf("min-move quality degraded: %d vs %d", cmMin, cmRebuild)
	}
}

func snapshot(a *core.Assignment, i, j int) map[int]int {
	out := make(map[int]int)
	for job := 0; job < a.Model().NumJobs(); job++ {
		if m := a.MachineOf(job); m == i || m == j {
			out[job] = m
		}
	}
	return out
}

func diffs(a *core.Assignment, before map[int]int) int {
	d := 0
	for job, m := range before {
		if a.MachineOf(job) != m {
			d++
		}
	}
	return d
}

func TestTransferHandlesEmptySides(t *testing.T) {
	id, _ := core.NewIdentical(2, []core.Cost{7})
	p := SameCostMinMove{Model: id}
	toI, toJ := placed(p, 0, 1, nil, []int{0})
	if len(toI)+len(toJ) != 1 {
		t.Fatal("job lost")
	}
	toI2, toJ2 := placed(p, 0, 1, nil, nil)
	if len(toI2) != 0 || len(toJ2) != 0 {
		t.Fatal("phantom jobs")
	}
}

// TestTransferKeepsSidesInArgumentOrder pins a transfer whose one move makes
// the sides trade roles: on sizes 5, 4, 2 with jobs 0 and 1 on machine 0,
// moving job 1 leaves 5 on machine 0 and 6 on machine 1. The step must hand
// each machine its own side and report job 1 as the only arrival.
func TestTransferKeepsSidesInArgumentOrder(t *testing.T) {
	id, _ := core.NewIdentical(2, []core.Cost{5, 4, 2})
	var s pairwise.Scratch
	toI, toJ := Step(SameCostMinMove{Model: id}, &s, 0, 1, []int{0, 1}, []int{2})
	if !slices.Equal(toI, []int{0}) || !slices.Equal(toJ, []int{1, 2}) {
		t.Fatalf("sides %v | %v, want [0] | [1 2]", toI, toJ)
	}
	if len(s.Diff1) != 0 || !slices.Equal(s.Diff2, []int{1}) {
		t.Fatalf("arrivals %v | %v, want [] | [1]", s.Diff1, s.Diff2)
	}
	if s.Load1 != 5 || s.Load2 != 6 {
		t.Fatalf("loads %d | %d, want 5 | 6", s.Load1, s.Load2)
	}
}

// placed is p's Step on a fresh scratch, copied out of it.
func placed(p Protocol, i, j int, onI, onJ []int) ([]int, []int) {
	var s pairwise.Scratch
	toI, toJ := Step(p, &s, i, j, onI, onJ)
	return slices.Clone(toI), slices.Clone(toJ)
}
