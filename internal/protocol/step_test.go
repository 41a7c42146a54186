package protocol

import (
	"slices"
	"strconv"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/pairwise"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// rankChecked wraps a protocol and fails the test unless every entry it is
// asked to split carries its job's rank in the protocol's ListOrder
// (entry>>32); *splits counts its splits.
type rankChecked struct {
	Protocol
	t      *testing.T
	rank   []int
	splits *int
}

func (p rankChecked) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	*p.splits++
	for _, entry := range jobs {
		if job, rank := core.JobOf(entry), int(uint64(entry)>>32); rank != p.rank[job] {
			p.t.Fatalf("pair (%d,%d): entry %#x of job %d has rank %d, want %d", i, j, entry, job, rank, p.rank[job])
		}
	}
	return p.Protocol.SplitScratch(s, i, j, jobs)
}

// TestBalanceStepsInListOrder drives Balance on DLB2C through rankChecked:
// Balance must build the pair's lists in the protocol's ListOrder, as the
// engines keep them, and split through the value it was given.
func TestBalanceStepsInListOrder(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("ranked entries need a 64-bit int")
	}
	gen := rng.New(29)
	tc := workload.UniformTwoCluster(gen, 3, 3, 60, 1, 40)
	order := DLB2C{Model: tc}.ListOrder()
	rank := make([]int, len(order))
	for k, j := range order {
		rank[j] = k
	}
	var splits int
	p := rankChecked{DLB2C{Model: tc}, t, rank, &splits}
	a := randomPlacement(gen, tc, 4)
	const steps = 200
	for step := 0; step < steps; step++ {
		i := gen.Intn(tc.NumMachines())
		Balance(p, a, i, gen.Pick(tc.NumMachines(), i))
	}
	if splits != steps {
		t.Fatalf("the wrapper's SplitScratch ran %d times in %d steps", splits, steps)
	}
}

// fuzzCase builds protocol number k of FuzzStep and its model, a small
// random instance of m >= 3 machines and n jobs whose costs are drawn from
// [0, hi], so that free jobs and ties are common. Numbers 0–6 are the seven
// protocols, and 7 is protocol number (k/8)%7 behind the embedding wrapper.
func fuzzCase(gen *rng.RNG, k, m, n int, hi core.Cost) (Protocol, core.CostModel) {
	if k%8 == 7 {
		p, model := fuzzCase(gen, (k/8)%7, m, n, hi)
		return embedded{p}, model
	}
	m1 := 1 + gen.Intn(m-1)
	switch k % 8 {
	case 0:
		id := workload.UniformIdentical(gen, m, n, 0, hi)
		return SameCost{Model: id}, id
	case 1:
		rel := workload.UniformRelated(gen, m, n, 3, 0, hi)
		return OJTB{Model: rel}, rel
	case 2:
		ty := workload.UniformTyped(gen, m, n, 1+gen.Intn(3), 0, hi)
		return MJTB{Model: ty}, ty
	case 3:
		tc := workload.UniformTwoCluster(gen, m1, m-m1, n, 0, hi)
		return DLB2C{Model: tc}, tc
	case 4:
		sizes := []int{m1, m - m1}
		if m1 > 1 {
			sizes = []int{1, m1 - 1, m - m1}
		}
		costs := make([][]core.Cost, len(sizes))
		for c := range costs {
			costs[c] = make([]core.Cost, n)
			for j := range costs[c] {
				costs[c][j] = gen.IntRange(0, hi)
			}
		}
		kc, err := core.NewKCluster(sizes, costs)
		if err != nil {
			panic(err)
		}
		return DLBKC{Model: kc}, kc
	case 5:
		id := workload.UniformIdentical(gen, m, n, 0, hi)
		return SameCostMinMove{Model: id}, id
	default:
		tc := workload.UniformTwoCluster(gen, m1, m-m1, n, 0, hi)
		return DLB2CMinMove{Model: tc}, tc
	}
}

// FuzzStep holds protocol.Step to a multiset oracle on small instances with
// free jobs and ties, a random placement (some jobs unassigned) and a random
// pair, whose lists are built in the protocol's ListOrder, or in increasing
// job order when proto's high bit is set. Both new sides must be strictly
// increasing and pool to the old union; Diff1 and Diff2 must be each side's
// arrivals, as a naive set difference finds them; Load1 and Load2 must be
// each side's costs summed afresh; except where a MinMove protocol
// transfers, the step must be a merge and a SplitScratch on a fresh
// scratch, and MJTB's must be BasicGreedy on each type's jobs in index
// order (the per-type reference); lists in increasing job order must give
// the same partition of jobs and the same loads (DLB2C's ranked unions take
// the kernels' cut and walks, job-order ones the ordering path); a dirty
// scratch must give the fresh scratch's result; the inputs must come back
// unmutated; and a second step on the result must move nothing.
func FuzzStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, proto, machines, jobs, hi byte, seed uint64) {
		m := 3 + int(machines%7)
		n := int(jobs % 41)
		gen := rng.New(seed)
		p, model := fuzzCase(gen, int(proto&0x7f), m, n, core.Cost(hi%8))
		a := core.NewAssignment(model)
		for job := 0; job < n; job++ {
			if gen.Intn(5) > 0 {
				a.Assign(job, gen.Intn(m))
			}
		}
		order := p.ListOrder()
		if proto&0x80 != 0 {
			order = nil
		}
		lists := make([][]int, m)
		a.FillOrderedLists(lists, make([]int, a.NumAssigned()), order)
		i := gen.Intn(m)
		j := gen.Pick(m, i)
		onI, onJ := lists[i], lists[j]
		keepI, keepJ := slices.Clone(onI), slices.Clone(onJ)

		var s pairwise.Scratch
		toI, toJ := Step(p, &s, i, j, onI, onJ)
		if !slices.Equal(onI, keepI) || !slices.Equal(onJ, keepJ) {
			t.Fatalf("%s (%d,%d): Step mutated its inputs", p.Name(), i, j)
		}
		if !increasing(toI) || !increasing(toJ) {
			t.Fatalf("%s (%d,%d): sides (%v, %v) not strictly increasing", p.Name(), i, j, toI, toJ)
		}
		union := pairwise.MergeSortedInto(nil, onI, onJ)
		if got := pairwise.MergeSortedInto(nil, toI, toJ); !slices.Equal(got, union) {
			t.Fatalf("%s (%d,%d): sides (%v, %v) pool to %v, want %v", p.Name(), i, j, toI, toJ, got, union)
		}
		if want := setMinus(toI, onI); !slices.Equal(s.Diff1, want) {
			t.Fatalf("%s (%d,%d): Diff1 %v, arrivals on i %v", p.Name(), i, j, s.Diff1, want)
		}
		if want := setMinus(toJ, onJ); !slices.Equal(s.Diff2, want) {
			t.Fatalf("%s (%d,%d): Diff2 %v, arrivals on j %v", p.Name(), i, j, s.Diff2, want)
		}
		if lI, lJ := sideLoad(model, i, toI), sideLoad(model, j, toJ); s.Load1 != lI || s.Load2 != lJ {
			t.Fatalf("%s (%d,%d): loads %d and %d, sides cost %d and %d", p.Name(), i, j, s.Load1, s.Load2, lI, lJ)
		}
		var probe pairwise.Scratch
		if _, _, ok := p.Transfer(&probe, i, j, onI, onJ); !ok || !minMove(p) {
			var fresh pairwise.Scratch
			wantI, wantJ := p.SplitScratch(&fresh, i, j, union)
			if !slices.Equal(toI, wantI) || !slices.Equal(toJ, wantJ) {
				t.Fatalf("%s (%d,%d): Step (%v, %v), merge and split (%v, %v)", p.Name(), i, j, toI, toJ, wantI, wantJ)
			}
		}
		// Either kind of list must give the same partition of jobs.
		jobLists := make([][]int, m)
		a.FillOrderedLists(jobLists, make([]int, a.NumAssigned()), nil)
		var plain pairwise.Scratch
		if jobI, jobJ := Step(p, &plain, i, j, jobLists[i], jobLists[j]); !slices.Equal(jobsOf(toI), jobI) || !slices.Equal(jobsOf(toJ), jobJ) ||
			plain.Load1 != s.Load1 || plain.Load2 != s.Load2 {
			t.Fatalf("%s (%d,%d): Step (%v, %v; %d, %d), on job-order lists (%v, %v; %d, %d)", p.Name(), i, j,
				jobsOf(toI), jobsOf(toJ), s.Load1, s.Load2, jobI, jobJ, plain.Load1, plain.Load2)
		}
		if ty, ok := model.(*core.Typed); ok {
			if _, mjtb := unwrap(p).(MJTB); mjtb {
				wantI, wantJ := perTypeBasicGreedy(ty, i, j, union)
				if !slices.Equal(toI, wantI) || !slices.Equal(toJ, wantJ) {
					t.Fatalf("%s (%d,%d): Step (%v, %v), per-type BasicGreedy (%v, %v)", p.Name(), i, j, toI, toJ, wantI, wantJ)
				}
			}
		}

		// A scratch dirtied by other steps must give the same result.
		var dirty pairwise.Scratch
		k := gen.Intn(m)
		l := gen.Pick(m, k)
		Step(p, &dirty, k, l, lists[k], lists[l])
		Step(p, &dirty, j, i, onJ, onI)
		gotI, gotJ := Step(p, &dirty, i, j, onI, onJ)
		if !slices.Equal(gotI, toI) || !slices.Equal(gotJ, toJ) ||
			!slices.Equal(dirty.Diff1, s.Diff1) || !slices.Equal(dirty.Diff2, s.Diff2) ||
			dirty.Load1 != s.Load1 || dirty.Load2 != s.Load2 {
			t.Fatalf("%s (%d,%d): dirty scratch (%v, %v; %v, %v; %d, %d), fresh (%v, %v; %v, %v; %d, %d)", p.Name(), i, j,
				gotI, gotJ, dirty.Diff1, dirty.Diff2, dirty.Load1, dirty.Load2, toI, toJ, s.Diff1, s.Diff2, s.Load1, s.Load2)
		}

		var again pairwise.Scratch
		Step(p, &again, i, j, slices.Clone(toI), slices.Clone(toJ))
		if len(again.Diff1)+len(again.Diff2) != 0 {
			t.Fatalf("%s (%d,%d): a second step on (%v, %v) moved %v and %v", p.Name(), i, j, toI, toJ, again.Diff1, again.Diff2)
		}
	})
}

// jobsOf returns the jobs of a side's entries in increasing job order.
func jobsOf(side []int) []int {
	jobs := make([]int, len(side))
	for k, entry := range side {
		jobs[k] = core.JobOf(entry)
	}
	slices.Sort(jobs)
	return jobs
}

// unwrap returns the protocol behind the embedding wrapper, or p.
func unwrap(p Protocol) Protocol {
	if e, ok := p.(embedded); ok {
		return e.Protocol
	}
	return p
}

// minMove reports whether p is one of the two MinMove protocols, whose
// Transfer moves jobs between the sides instead of splitting their union.
func minMove(p Protocol) bool {
	switch unwrap(p).(type) {
	case SameCostMinMove, DLB2CMinMove:
		return true
	}
	return false
}

// sideLoad sums the costs of a side's jobs on machine i: the oracle of the
// loads a step leaves on the scratch.
func sideLoad(model core.CostModel, i int, side []int) core.Cost {
	var l core.Cost
	for _, entry := range side {
		l += model.Cost(i, core.JobOf(entry))
	}
	return l
}

// perTypeBasicGreedy is MJTB's reference split of a union sorted by entry:
// AppendSplitBasicGreedy on each type's entries in increasing job index,
// the per-type sides merged back into entry order.
func perTypeBasicGreedy(ty *core.Typed, i, j int, union []int) (toI, toJ []int) {
	for typ := 0; typ < ty.NumTypes(); typ++ {
		var ofType []int
		for _, entry := range union {
			if ty.TypeOf(core.JobOf(entry)) == typ {
				ofType = append(ofType, entry)
			}
		}
		slices.SortFunc(ofType, func(a, b int) int { return core.JobOf(a) - core.JobOf(b) })
		a, b, _, _ := pairwise.AppendSplitBasicGreedy(ty, i, j, 0, 0, ofType, nil, nil)
		toI, toJ = append(toI, a...), append(toJ, b...)
	}
	slices.Sort(toI)
	slices.Sort(toJ)
	return toI, toJ
}

// setMinus returns the entries of side absent from old, in side's order:
// the naive oracle of a side's arrivals.
func setMinus(side, old []int) []int {
	var out []int
	for _, entry := range side {
		if !slices.Contains(old, entry) {
			out = append(out, entry)
		}
	}
	return out
}
