package protocol

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
	"hetlb/internal/rng"
)

// cloneUnstablePair is the reference stability scan: for every pair in scan
// order, balance a clone of the whole assignment and compare it with the
// original. The Checker's scratch scan must agree with it.
func cloneUnstablePair(p Protocol, a *core.Assignment) (int, int) {
	m := a.Model().NumMachines()
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			b := a.Clone()
			Balance(p, b, i, j)
			if !b.Equal(a) {
				return i, j
			}
		}
	}
	return -1, -1
}

// randomPlacement places each job on a random machine, leaving it unassigned
// with probability 1/skip (never when skip is 0).
func randomPlacement(gen *rng.RNG, model core.CostModel, skip int) *core.Assignment {
	a := core.NewAssignment(model)
	for job := 0; job < model.NumJobs(); job++ {
		if skip > 0 && gen.Intn(skip) == 0 {
			continue
		}
		a.Assign(job, gen.Intn(model.NumMachines()))
	}
	return a
}

// embedded wraps a protocol the way instrumentation does, inheriting every
// method. Its BalanceSides is the inner protocol's, so its stability check
// must be the inner protocol's too.
type embedded struct{ Protocol }

// TestUnstablePairMatchesCloneOracle checks, for all 7 protocols, bare and
// behind an embedding wrapper, that the scratch scan returns the same first
// failing pair as the clone oracle on random placements, on placements with
// unassigned jobs, along random balancing trajectories (whose first failing
// pair moves through the scan order) and at the stable placements those
// trajectories reach.
func TestUnstablePairMatchesCloneOracle(t *testing.T) {
	stable := map[string]int{}
	for seed := uint64(1); seed <= 12; seed++ {
		for _, c := range scratchCases(seed) {
			gen := rng.New(seed*6151 + 3)
			m := c.model.NumMachines()
			for _, skip := range []int{0, 4} {
				a := randomPlacement(gen, c.model, skip)
				for step := 0; step < 400; step++ {
					if step%20 == 0 {
						wi, wj := cloneUnstablePair(c.proto, a)
						gi, gj := UnstablePair(c.proto, a)
						if gi != wi || gj != wj {
							t.Fatalf("%s seed=%d skip=%d step=%d: UnstablePair (%d,%d), clone oracle (%d,%d)",
								c.name, seed, skip, step, gi, gj, wi, wj)
						}
						if ei, ej := UnstablePair(embedded{c.proto}, a); ei != wi || ej != wj {
							t.Fatalf("%s seed=%d skip=%d step=%d: UnstablePair behind a wrapper (%d,%d), clone oracle (%d,%d)",
								c.name, seed, skip, step, ei, ej, wi, wj)
						}
						if Stable(c.proto, a) != (wi == -1) {
							t.Fatalf("%s seed=%d skip=%d step=%d: Stable disagrees with the oracle", c.name, seed, skip, step)
						}
						if wi == -1 {
							stable[c.name]++
							break
						}
					}
					i := gen.Intn(m)
					Balance(c.proto, a, i, gen.Pick(m, i))
				}
			}
		}
	}
	for _, c := range scratchCases(1) {
		if stable[c.name] == 0 {
			t.Errorf("%s: no trajectory reached a stable placement; the stable case went untested", c.name)
		}
	}
}

// TestCheckerSkipsOnlyVerifiedPairs drives one Checker on BalanceSides
// through a balancing trajectory, marking the pair of every step that moved
// a job, and checks
// at random points that its incremental answer is the full scan's, that an
// immediate re-check splits exactly the one failing pair (or none when
// stable), and that a check splits no more pairs than a full scan.
func TestCheckerSkipsOnlyVerifiedPairs(t *testing.T) {
	var s stepCounter
	for seed := uint64(1); seed <= 10; seed++ {
		for _, c := range scratchCases(seed) {
			gen := rng.New(seed*7727 + 5)
			m := c.model.NumMachines()
			a := randomPlacement(gen, c.model, 0)
			ch := NewChecker(m, s.count(c.proto.BalanceSides))
			for round := 0; round < 40; round++ {
				for k := gen.Intn(2 * m); k > 0; k-- {
					i := gen.Intn(m)
					j := gen.Pick(m, i)
					before := a.Clone()
					Balance(c.proto, a, i, j)
					if !a.Equal(before) {
						ch.Mark(i)
						ch.Mark(j)
					}
				}
				wi, wj := cloneUnstablePair(c.proto, a)
				s.n = 0
				gi, gj := ch.CheckAssignment(a)
				if gi != wi || gj != wj {
					t.Fatalf("%s seed=%d round=%d: incremental check (%d,%d), full scan (%d,%d)", c.name, seed, round, gi, gj, wi, wj)
				}
				if full := fullScanPairs(m, wi, wj); s.n > full {
					t.Fatalf("%s seed=%d round=%d: check split %d pairs, a full scan splits %d", c.name, seed, round, s.n, full)
				}
				s.n = 0
				if ri, rj := ch.CheckAssignment(a); ri != wi || rj != wj {
					t.Fatalf("%s seed=%d round=%d: re-check (%d,%d), want (%d,%d)", c.name, seed, round, ri, rj, wi, wj)
				}
				want := 1
				if wi == -1 {
					want = 0
				}
				if s.n != want {
					t.Fatalf("%s seed=%d round=%d: immediate re-check split %d pairs, want %d", c.name, seed, round, s.n, want)
				}
			}
		}
	}
}

// fullScanPairs is the number of pairs a scan from (0,1) splits when its
// first failing pair is (i, j): all of them when i is -1.
func fullScanPairs(m, i, j int) int {
	if i == -1 {
		return m * (m - 1) / 2
	}
	return i*m - i*(i+1)/2 + j - i
}

// stepCounter counts the pair steps a checker makes.
type stepCounter struct{ n int }

func (s *stepCounter) count(step PairStep) PairStep {
	return func(sc *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int) {
		s.n++
		return step(sc, i, j, onI, onJ)
	}
}
