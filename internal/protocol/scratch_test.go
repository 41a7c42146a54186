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

// TestSplitScratchMatchesSplit checks that for every protocol and random
// pooled job sets, SplitScratch is bit-identical to Split — including with a
// dirty scratch carried over between calls and with jobs aliasing s.Union —
// and that it returns each side as an ordered subsequence of jobs: both
// sides strictly increasing, together exactly the pooled jobs.
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
				wantI, wantJ := c.proto.Split(i, j, jobs)
				s.Union = append(s.Union[:0], jobs...)
				gotI, gotJ := c.proto.SplitScratch(&s, i, j, s.Union)
				if !slices.Equal(wantI, gotI) || !slices.Equal(wantJ, gotJ) {
					t.Fatalf("%s seed=%d pair=(%d,%d): SplitScratch (%v, %v) != Split (%v, %v) for jobs %v",
						c.name, seed, i, j, gotI, gotJ, wantI, wantJ, jobs)
				}
				if !increasing(gotI) || !increasing(gotJ) {
					t.Fatalf("%s seed=%d pair=(%d,%d): sides (%v, %v) not in job order", c.name, seed, i, j, gotI, gotJ)
				}
				if merged := mergeSortedInts(gotI, gotJ); !slices.Equal(merged, jobs) {
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
				a, b := pairwise.SplitBasicGreedy(ty, i, j, ofType)
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
// through the same pair sequence — one with Balance, one with BalanceScratch
// — and checks that the assignments stay identical and that the returned
// migration count matches the observed machine changes.
func TestBalanceScratchMatchesBalance(t *testing.T) {
	var s pairwise.Scratch
	for seed := uint64(1); seed <= 12; seed++ {
		for _, c := range scratchCases(seed) {
			gen := rng.New(seed*104729 + 11)
			m := c.model.NumMachines()
			n := c.model.NumJobs()
			ref := core.NewAssignment(c.model)
			for job := 0; job < n; job++ {
				ref.Assign(job, gen.Intn(m))
			}
			idx := ref.Clone()
			for step := 0; step < 60; step++ {
				i := gen.Intn(m)
				j := gen.Pick(m, i)
				before := snapshot(idx, i, j)
				c.proto.Balance(ref, i, j)
				moved := c.proto.BalanceScratch(&s, idx, i, j)
				if !idx.Equal(ref) {
					t.Fatalf("%s seed=%d step=%d pair=(%d,%d): BalanceScratch diverged from Balance",
						c.name, seed, step, i, j)
				}
				if want := diffs(idx, before); moved != want {
					t.Fatalf("%s seed=%d step=%d pair=(%d,%d): BalanceScratch reported %d moves, observed %d",
						c.name, seed, step, i, j, moved, want)
				}
				if err := idx.Validate(); err != nil {
					t.Fatalf("%s seed=%d step=%d: invalid after BalanceScratch: %v", c.name, seed, step, err)
				}
			}
		}
	}
}

// TestBalanceScratchStableNoMoves checks the migration counter at a fixed
// point: once the pair is stable, BalanceScratch must report zero moves.
func TestBalanceScratchStableNoMoves(t *testing.T) {
	var s pairwise.Scratch
	for _, c := range scratchCases(3) {
		gen := rng.New(42)
		m := c.model.NumMachines()
		a := core.RoundRobin(c.model)
		i := gen.Intn(m)
		j := gen.Pick(m, i)
		c.proto.Balance(a, i, j)
		if moved := c.proto.BalanceScratch(&s, a, i, j); moved != 0 {
			t.Errorf("%s: repeated step on pair (%d,%d) reported %d moves, want 0", c.name, i, j, moved)
		}
	}
}
