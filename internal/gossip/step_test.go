package gossip

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestStepMatchesBalance is the property test of the list-based step: after
// every Engine.Step, for random instances of every protocol and of a value
// that embeds one,
//   - each engine job list equals the O(n) Jobs scan of the assignment;
//   - the assignment equals a pre-step clone balanced by protocol.Balance on
//     the same pair;
//   - the step's move count equals the number of jobs whose machine changed.
func TestStepMatchesBalance(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		gen := rng.New(seed * 2654435761)
		m := 2 * (2 + gen.Intn(4)) // even, so DLBKC splits it into two clusters
		n := 2*m + gen.Intn(6*m)
		for _, c := range stepCases(gen, m, n) {
			a := core.NewAssignment(c.model)
			for j := 0; j < n; j++ {
				a.Assign(j, gen.Intn(m))
			}
			e := New(c.proto, a, Config{Seed: seed})
			var pi, pj int
			e.Observe(observerFunc(func(_ Stepper, _, i, j int) { pi, pj = i, j }))
			steps := 1 + gen.Intn(120)
			for s := 0; s < steps; s++ {
				before, movesBefore := a.Clone(), e.Moves()
				e.Step()
				if err := a.Validate(); err != nil {
					t.Fatalf("%s seed=%d step=%d: %v", c.name, seed, s, err)
				}
				for i := 0; i < m; i++ {
					if got, ok := listJobs(e.jobs[i]); !ok || !slices.Equal(got, a.Jobs(i)) {
						t.Fatalf("%s seed=%d step=%d: list of machine %d = %v, scan = %v",
							c.name, seed, s, i, e.jobs[i], a.Jobs(i))
					}
				}
				ref := before.Clone()
				protocol.Balance(c.proto, ref, pi, pj)
				if !a.Equal(ref) {
					t.Fatalf("%s seed=%d step=%d pair=(%d,%d): step diverged from Balance",
						c.name, seed, s, pi, pj)
				}
				changed := 0
				for j := 0; j < n; j++ {
					if a.MachineOf(j) != before.MachineOf(j) {
						changed++
					}
				}
				if moved := e.Moves() - movesBefore; moved != changed {
					t.Fatalf("%s seed=%d step=%d: step counted %d moves, %d jobs changed machine",
						c.name, seed, s, moved, changed)
				}
			}
		}
	}
}

// TestUnionMatchesScan checks the engine's list-based pooling: after every
// engine step, for random instances, protocols and step counts, the union of
// a random pair merged from the engine's job lists (MergeSortedInto, how
// protocol.Step pools a pair for a split) must equal
// pairwise.Union, a brute-force O(n) scan of the job→machine map.
func TestUnionMatchesScan(t *testing.T) {
	var union []int
	for seed := uint64(1); seed <= 15; seed++ {
		gen := rng.New(seed * 40503)
		m := 2 * (2 + gen.Intn(4))
		n := 2*m + gen.Intn(6*m)
		for _, c := range stepCases(gen, m, n) {
			a := core.NewAssignment(c.model)
			for j := 0; j < n; j++ {
				a.Assign(j, gen.Intn(m))
			}
			e := New(c.proto, a, Config{Seed: seed})
			steps := 1 + gen.Intn(120)
			for s := 0; s < steps; s++ {
				e.Step()
				for trial := 0; trial < 4; trial++ {
					i := gen.Intn(m)
					j := gen.Pick(m, i)
					want := pairwise.Union(a, i, j)
					union = pairwise.MergeSortedInto(union[:0], e.jobs[i], e.jobs[j])
					if got, ok := listJobs(union); !ok || !slices.Equal(got, want) {
						t.Fatalf("%s seed=%d step=%d: merged lists of (%d,%d) = %v, Union scan = %v",
							c.name, seed, s, i, j, union, want)
					}
				}
			}
		}
	}
}

// listJobs decodes a job list's entries (core.JobOf) and returns their jobs
// in increasing job order; ok is false if the entries are not strictly
// increasing, which every engine list and merged union must be.
func listJobs(list []int) (jobs []int, ok bool) {
	for k, entry := range list {
		if k > 0 && list[k-1] >= entry {
			return nil, false
		}
		jobs = append(jobs, core.JobOf(entry))
	}
	slices.Sort(jobs)
	return jobs, true
}

// embedded is a protocol value that embeds another, as the benchmark's
// counting wrapper does: the engine steps, and Balance balances, with the
// Transfer and SplitScratch it inherits, so an embedded MinMove protocol
// still transfers.
type embedded struct{ protocol.Protocol }

type stepCase struct {
	name  string
	model core.CostModel
	proto protocol.Protocol
}

// stepCases covers every protocol with a small random instance.
func stepCases(gen *rng.RNG, m, n int) []stepCase {
	id := workload.UniformIdentical(gen, m, n, 1, 25)
	rel := workload.UniformRelated(gen, m, n, 5, 1, 25)
	ty := workload.UniformTyped(gen, m, n, 1+gen.Intn(3), 1, 25)
	m1 := 1 + gen.Intn(m-1)
	tc := workload.UniformTwoCluster(gen, m1, m-m1, n, 1, 25)
	kc := uniformKCluster(gen, 2, m/2, n, 25)
	return []stepCase{
		{"SameCost", id, protocol.SameCost{Model: id}},
		{"OJTB", rel, protocol.OJTB{Model: rel}},
		{"MJTB", ty, protocol.MJTB{Model: ty}},
		{"DLB2C", tc, protocol.DLB2C{Model: tc}},
		{"DLBKC", kc, protocol.DLBKC{Model: kc}},
		{"SameCostMinMove", id, protocol.SameCostMinMove{Model: id}},
		{"DLB2CMinMove", tc, protocol.DLB2CMinMove{Model: tc}},
		{"embedded DLB2CMinMove", tc, embedded{protocol.DLB2CMinMove{Model: tc}}},
	}
}
