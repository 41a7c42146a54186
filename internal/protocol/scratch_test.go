package protocol

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// scratchCase pairs a protocol with a random instance of its model family.
type scratchCase struct {
	name  string
	model core.CostModel
	proto Protocol
}

// scratchCases builds one random instance per protocol, covering every
// Protocol implementation in the package.
func scratchCases(seed uint64) []scratchCase {
	gen := rng.New(seed)
	m := 4 + gen.Intn(6)
	n := 3*m + gen.Intn(3*m)
	id := workload.UniformIdentical(gen, m, n, 1, 40)
	rel := workload.UniformRelated(gen, m, n, 6, 1, 40)
	ty := workload.UniformTyped(gen, m, n, 1+gen.Intn(4), 1, 40)
	m1 := 1 + m/2
	tc := workload.UniformTwoCluster(gen, m1, m-m1, n, 1, 40)
	k := 2 + gen.Intn(3)
	kc := randomKCluster(gen, k, 1+m/k, n, 40)
	return []scratchCase{
		{"SameCost", id, SameCost{Model: id}},
		{"OJTB", rel, OJTB{Model: rel}},
		{"MJTB", ty, MJTB{Model: ty}},
		{"DLB2C", tc, DLB2C{Model: tc}},
		{"DLBKC", kc, DLBKC{Model: kc}},
		{"SameCostMinMove", id, SameCostMinMove{Model: id}},
		{"DLB2CMinMove", tc, DLB2CMinMove{Model: tc}},
	}
}

// split is p's split of jobs on a fresh scratch, copied out of it.
func split(p Protocol, i, j int, jobs []int) ([]int, []int) {
	var s pairwise.Scratch
	toI, toJ := p.SplitScratch(&s, i, j, jobs)
	return slices.Clone(toI), slices.Clone(toJ)
}

// TestSplitScratchMatchesSplit checks that for every protocol and random
// pooled job sets, SplitScratch on a reused scratch is bit-identical to a
// split on a fresh one — with a dirty scratch carried over between calls and
// with jobs aliasing s.Union — and that it returns each side as an ordered
// subsequence of jobs: both sides strictly increasing, together exactly the
// pooled jobs.
func TestSplitScratchMatchesSplit(t *testing.T) {
	var s pairwise.Scratch // shared across all cases: leftovers must not leak
	for seed := uint64(1); seed <= 20; seed++ {
		gen := rng.New(seed * 7919)
		for _, c := range scratchCases(seed) {
			m := c.model.NumMachines()
			n := c.model.NumJobs()
			for trial := 0; trial < 25; trial++ {
				i := gen.Intn(m)
				j := gen.Pick(m, i)
				var jobs []int
				for job := 0; job < n; job++ {
					if gen.Intn(3) > 0 {
						jobs = append(jobs, job)
					}
				}
				wantI, wantJ := split(c.proto, i, j, jobs)
				s.Union = append(s.Union[:0], jobs...)
				gotI, gotJ := c.proto.SplitScratch(&s, i, j, s.Union)
				if !slices.Equal(wantI, gotI) || !slices.Equal(wantJ, gotJ) {
					t.Fatalf("%s seed=%d pair=(%d,%d): reused scratch (%v, %v) != fresh scratch (%v, %v) for jobs %v",
						c.name, seed, i, j, gotI, gotJ, wantI, wantJ, jobs)
				}
				if !increasing(gotI) || !increasing(gotJ) {
					t.Fatalf("%s seed=%d pair=(%d,%d): sides (%v, %v) not in job order", c.name, seed, i, j, gotI, gotJ)
				}
				if merged := pairwise.MergeSortedInto(nil, gotI, gotJ); !slices.Equal(merged, jobs) {
					t.Fatalf("%s seed=%d pair=(%d,%d): sides (%v, %v) do not pool to jobs %v", c.name, seed, i, j, gotI, gotJ, jobs)
				}
			}
		}
	}
}

// TestMJTBMatchesPerTypeConcatenation checks MJTB against the form it had
// before its sides came out in input order: BasicGreedy on each type's jobs
// in index order, the per-type sides concatenated. The sides must hold the
// same jobs.
func TestMJTBMatchesPerTypeConcatenation(t *testing.T) {
	var s pairwise.Scratch
	for seed := uint64(1); seed <= 20; seed++ {
		gen := rng.New(seed)
		m := 2 + gen.Intn(6)
		n := 10 + gen.Intn(60)
		ty := workload.UniformTyped(gen, m, n, 1+gen.Intn(5), 1, 40)
		p := MJTB{Model: ty}
		for trial := 0; trial < 20; trial++ {
			i := gen.Intn(m)
			j := gen.Pick(m, i)
			var jobs []int
			for job := 0; job < n; job++ {
				if gen.Bool() {
					jobs = append(jobs, job)
				}
			}
			var wantI, wantJ []int
			for typ := 0; typ < ty.NumTypes(); typ++ {
				var ofType []int
				for _, job := range jobs {
					if ty.TypeOf(job) == typ {
						ofType = append(ofType, job)
					}
				}
				a, b, _, _ := pairwise.AppendSplitBasicGreedy(ty, i, j, ofType, nil, nil)
				wantI, wantJ = append(wantI, a...), append(wantJ, b...)
			}
			slices.Sort(wantI)
			slices.Sort(wantJ)
			gotI, gotJ := p.SplitScratch(&s, i, j, jobs)
			if !slices.Equal(gotI, wantI) || !slices.Equal(gotJ, wantJ) {
				t.Fatalf("seed=%d pair=(%d,%d): MJTB (%v, %v), per-type reference (%v, %v)", seed, i, j, gotI, gotJ, wantI, wantJ)
			}
		}
	}
}

// increasing reports whether side is strictly increasing.
func increasing(side []int) bool {
	for k := 1; k < len(side); k++ {
		if side[k-1] >= side[k] {
			return false
		}
	}
	return true
}

// TestBalanceScratchMatchesBalance drives two copies of the same start
// through the same pair sequence — one with Balance (lists rebuilt from the
// assignment and a fresh scratch per step), one with Step on sorted
// per-machine job lists kept by the caller and one scratch shared by every
// case, as the sequential engine steps — and checks that the assignments
// stay identical, that each side comes back in job order, and that the
// AppendDiff arrivals count exactly the observed machine changes.
func TestBalanceScratchMatchesBalance(t *testing.T) {
	var s pairwise.Scratch // shared across all cases: leftovers must not leak
	for seed := uint64(1); seed <= 12; seed++ {
		for _, c := range scratchCases(seed) {
			gen := rng.New(seed*104729 + 11)
			m := c.model.NumMachines()
			n := c.model.NumJobs()
			ref := core.NewAssignment(c.model)
			for job := 0; job < n; job++ {
				ref.Assign(job, gen.Intn(m))
			}
			lst := ref.Clone()
			lists := make([][]int, m)
			for i := range lists {
				lists[i] = lst.Jobs(i)
			}
			for step := 0; step < 60; step++ {
				i := gen.Intn(m)
				j := gen.Pick(m, i)
				before := snapshot(lst, i, j)
				Balance(c.proto, ref, i, j)
				toI, toJ := Step(c.proto, &s, i, j, lists[i], lists[j])
				if !increasing(toI) || !increasing(toJ) {
					t.Fatalf("%s seed=%d step=%d pair=(%d,%d): sides (%v, %v) not in job order",
						c.name, seed, step, i, j, toI, toJ)
				}
				s.Diff1 = pairwise.AppendDiff(s.Diff1[:0], lists[i], toI)
				s.Diff2 = pairwise.AppendDiff(s.Diff2[:0], lists[j], toJ)
				for _, job := range s.Diff1 {
					lst.Move(job, i)
				}
				for _, job := range s.Diff2 {
					lst.Move(job, j)
				}
				lists[i] = append(lists[i][:0], toI...)
				lists[j] = append(lists[j][:0], toJ...)
				if !lst.Equal(ref) {
					t.Fatalf("%s seed=%d step=%d pair=(%d,%d): Step on kept lists diverged from Balance",
						c.name, seed, step, i, j)
				}
				if moved, want := len(s.Diff1)+len(s.Diff2), diffs(lst, before); moved != want {
					t.Fatalf("%s seed=%d step=%d pair=(%d,%d): Step counted %d moves, observed %d",
						c.name, seed, step, i, j, moved, want)
				}
				if err := lst.Validate(); err != nil {
					t.Fatalf("%s seed=%d step=%d: invalid after Step: %v", c.name, seed, step, err)
				}
			}
		}
	}
}

// TestBalanceScratchStableNoMoves checks the scratch step at a fixed point:
// once Balance has balanced a pair, Step on the pair's sides must leave both
// sides as they are, so a repeated step moves nothing.
func TestBalanceScratchStableNoMoves(t *testing.T) {
	var s pairwise.Scratch
	for _, c := range scratchCases(3) {
		gen := rng.New(42)
		m := c.model.NumMachines()
		a := core.RoundRobin(c.model)
		i := gen.Intn(m)
		j := gen.Pick(m, i)
		Balance(c.proto, a, i, j)
		onI, onJ := a.Jobs(i), a.Jobs(j)
		if toI, toJ := Step(c.proto, &s, i, j, onI, onJ); !slices.Equal(toI, onI) || !slices.Equal(toJ, onJ) {
			t.Errorf("%s: repeated step on pair (%d,%d) moved jobs: (%v, %v) -> (%v, %v)", c.name, i, j, onI, onJ, toI, toJ)
		}
	}
}
