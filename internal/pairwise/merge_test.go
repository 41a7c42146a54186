package pairwise

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
)

// naiveDiff is the oracle: elements of new absent from old, computed by a
// per-element membership scan with multiset semantics (each occurrence in
// old cancels at most one occurrence in new), matching the sorted two-pointer
// walk of AppendDiff.
func naiveDiff(old, new []int) []int {
	remaining := append([]int(nil), old...)
	var out []int
	for _, v := range new {
		idx := -1
		for k, w := range remaining {
			if w == v {
				idx = k
				break
			}
		}
		if idx >= 0 {
			remaining = append(remaining[:idx], remaining[idx+1:]...)
		} else {
			out = append(out, v)
		}
	}
	return out
}

// randomSorted draws a sorted list of up to maxLen values in [0, valRange),
// with duplicates allowed — job IDs are unique in the engines, but the
// kernels themselves are specified on arbitrary sorted lists.
func randomSorted(gen *rng.RNG, maxLen, valRange int) []int {
	n := int(gen.Uint64() % uint64(maxLen+1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(gen.Uint64() % uint64(valRange))
	}
	slices.Sort(out)
	return out
}

func TestAppendDiffProperty(t *testing.T) {
	gen := rng.New(0x5eed)
	for trial := 0; trial < 2000; trial++ {
		old := randomSorted(gen, 40, 30)
		new := randomSorted(gen, 40, 30)
		got := AppendDiff(nil, old, new)
		want := naiveDiff(old, new)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: AppendDiff(%v, %v) = %v, oracle %v", trial, old, new, got, want)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("trial %d: AppendDiff output %v not sorted", trial, got)
		}
	}
}

func TestAppendDiffEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		old, new []int
		want     []int
	}{
		{"both empty", nil, nil, nil},
		{"empty old", nil, []int{1, 2, 3}, []int{1, 2, 3}},
		{"empty new", []int{1, 2, 3}, nil, nil},
		{"identical", []int{4, 7, 9}, []int{4, 7, 9}, nil},
		{"disjoint", []int{1, 3}, []int{2, 4}, []int{2, 4}},
		{"duplicates cancel once", []int{5, 5}, []int{5, 5, 5}, []int{5}},
	}
	for _, tc := range cases {
		if got := AppendDiff(nil, tc.old, tc.new); !slices.Equal(got, tc.want) {
			t.Errorf("%s: AppendDiff(%v, %v) = %v, want %v", tc.name, tc.old, tc.new, got, tc.want)
		}
	}
}

func TestAppendDiffPreservesDst(t *testing.T) {
	dst := []int{-1, -2}
	got := AppendDiff(dst, []int{1}, []int{1, 2})
	if want := []int{-1, -2, 2}; !slices.Equal(got, want) {
		t.Fatalf("AppendDiff must append to dst: got %v, want %v", got, want)
	}
}

// sortedPair draws two sorted lists for the walks' property tests, in one
// of six shapes: independent lists with duplicates (either may come out
// empty), identical lists, disjoint value ranges with either list entirely
// below the other (so that one is exhausted before the other's first head
// is taken), one list empty, and a list against an edit of itself (some
// entries dropped, some added), which is how a pair step changes a side.
func sortedPair(gen *rng.RNG, shape int) (a, b []int) {
	switch shape % 6 {
	case 0:
		return randomSorted(gen, 40, 30), randomSorted(gen, 40, 30)
	case 1:
		a = randomSorted(gen, 40, 30)
		return a, slices.Clone(a)
	case 2, 3:
		a, b = randomSorted(gen, 20, 15), randomSorted(gen, 20, 15)
		for k := range b {
			b[k] += 15
		}
		if shape%6 == 3 {
			a, b = b, a
		}
		return a, b
	case 4:
		a = randomSorted(gen, 40, 30)
		if gen.Intn(2) == 0 {
			return a, nil
		}
		return nil, a
	default:
		a = randomSorted(gen, 40, 30)
		for _, v := range a {
			if gen.Intn(4) > 0 {
				b = append(b, v)
			}
		}
		b = append(b, randomSorted(gen, 10, 30)...)
		slices.Sort(b)
		return a, b
	}
}

// dirtyDst returns a destination holding the prefix [-1, -2] whose spare
// capacity holds junk, so that a walk that reads or keeps a slot it did not
// write shows it.
func dirtyDst() []int {
	dst := make([]int, 64)
	for k := range dst {
		dst[k] = -7
	}
	dst[0], dst[1] = -1, -2
	return dst[:2]
}

// TestMergeSortedIntoProperty holds the branch-free merge to a sort of the
// concatenation, after a kept prefix, on every shape of sortedPair and
// with either list first.
func TestMergeSortedIntoProperty(t *testing.T) {
	gen := rng.New(0x3e26e)
	for trial := 0; trial < 3000; trial++ {
		a, b := sortedPair(gen, trial)
		if trial%2 == 1 {
			a, b = b, a
		}
		want := append([]int{-1, -2}, a...)
		want = append(want, b...)
		slices.Sort(want[2:])
		if got := MergeSortedInto(dirtyDst(), a, b); !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeSortedInto([-1 -2], %v, %v) = %v, want %v", trial, a, b, got, want)
		}
		if got := MergeSortedInto(nil, a, b); !slices.Equal(got, want[2:]) {
			t.Fatalf("trial %d: MergeSortedInto(nil, %v, %v) = %v, want %v", trial, a, b, got, want[2:])
		}
	}
}

// TestAppendMovesProperty holds the arrival walk to naiveDiff in both
// directions, after kept prefixes, on every shape of sortedPair and with
// either list as the old one.
func TestAppendMovesProperty(t *testing.T) {
	gen := rng.New(0xa77e5)
	for trial := 0; trial < 3000; trial++ {
		old, new := sortedPair(gen, trial)
		if trial%2 == 1 {
			old, new = new, old
		}
		arrived, departed := AppendMoves(dirtyDst(), dirtyDst(), old, new)
		wantIn := append([]int{-1, -2}, naiveDiff(old, new)...)
		wantOut := append([]int{-1, -2}, naiveDiff(new, old)...)
		if !slices.Equal(arrived, wantIn) || !slices.Equal(departed, wantOut) {
			t.Fatalf("trial %d: AppendMoves(old %v, new %v) = %v, %v; want %v, %v", trial, old, new, arrived, departed, wantIn, wantOut)
		}
		if got := AppendDiff(dirtyDst(), old, new); !slices.Equal(got, wantIn) {
			t.Fatalf("trial %d: AppendDiff(old %v, new %v) = %v, want %v", trial, old, new, got, wantIn)
		}
	}
}

// typedPair draws a typed model and two of its machines' job lists for
// TestMergeSplitByTypeProperty: 2 to 4 machines, 1 to 6 types with costs
// in [0, 5] (equal on m1 and m2 in a third of the trials), and 0 to 300
// jobs on each of m1 and m2, of types drawn from a subset per machine, so
// that a type can be missing on one side, plus up to 40 jobs on the other
// machines, which leave gaps in the ranks. Every fifth trial empties one
// side. The lists come from FillOrderedLists, in the model's TypeOrder when
// ranked and in increasing job order otherwise.
func typedPair(gen *rng.RNG, trial int, ranked bool) (ty *core.Typed, m1, m2 int, on1, on2 []int) {
	m := 2 + gen.Intn(3)
	k := 1 + gen.Intn(6)
	m1 = gen.Intn(m)
	m2 = gen.Pick(m, m1)
	p := make([][]core.Cost, m)
	for i := range p {
		p[i] = make([]core.Cost, k)
		for t := range p[i] {
			p[i][t] = gen.IntRange(0, 5)
		}
	}
	if trial%3 == 0 {
		copy(p[m2], p[m1])
	}
	counts := make([]int, m)
	counts[m1], counts[m2] = gen.Intn(301), gen.Intn(301)
	if trial%5 == 0 {
		counts[[]int{m1, m2}[gen.Intn(2)]] = 0
	}
	var machineOf []int
	for i := range counts {
		if i != m1 && i != m2 {
			counts[i] = gen.Intn(41)
		}
		for c := 0; c < counts[i]; c++ {
			machineOf = append(machineOf, i)
		}
	}
	gen.ShuffleInts(machineOf)
	// allowed[i] is the types machine i holds: all of them, or on m1 and
	// m2 each a random non-empty subset.
	allowed := make([][]int, m)
	for i := range allowed {
		for t := 0; t < k; t++ {
			if (i != m1 && i != m2) || gen.Intn(2) == 0 {
				allowed[i] = append(allowed[i], t)
			}
		}
		if len(allowed[i]) == 0 {
			allowed[i] = []int{gen.Intn(k)}
		}
	}
	typeOf := make([]int, len(machineOf))
	for j, i := range machineOf {
		typeOf[j] = allowed[i][gen.Intn(len(allowed[i]))]
	}
	ty, err := core.NewTyped(p, typeOf)
	if err != nil {
		panic(err)
	}
	a := core.NewAssignment(ty)
	for j, i := range machineOf {
		a.Assign(j, i)
	}
	var order []uint32
	if ranked {
		order, _ = ty.TypeOrder()
	}
	lists := make([][]int, m)
	a.FillOrderedLists(lists, make([]int, len(machineOf)), order)
	return ty, m1, m2, lists[m1], lists[m2]
}

// dirtyScratch returns a scratch whose outputs hold junk, in their length
// and in their spare capacity, and whose union holds a sentinel, so that a
// walk that keeps a slot it did not write, or writes the union, shows it.
func dirtyScratch() *Scratch {
	junk := func() []int {
		buf := make([]int, 700)
		for k := range buf {
			buf[k] = -7
		}
		return buf[:3]
	}
	return &Scratch{
		Union: []int{-5, -6}, To1: junk(), To2: junk(), Diff1: junk(), Diff2: junk(),
		Load1: -9, Load2: -9,
	}
}

// TestMergeSplitByTypeProperty holds MJTB's one-walk pair step to its
// definition on every shape typedPair draws, on ranked lists in the type
// order and on lists in increasing job order, into a dirty scratch: the
// sides are the merge of the two lists split type by type with
// AppendSplitBasicGreedy, the arrivals on each side are the naive
// difference of its new list and its old one, and each machine's load is
// its side's costs summed from TypeCosts. The union buffer is not written,
// and a step on the union alone (SplitScratch's call, with the union
// aliasing the scratch's own buffer) gives the same sides.
func TestMergeSplitByTypeProperty(t *testing.T) {
	gen := rng.New(0x3a7b)
	for trial := 0; trial < 2000; trial++ {
		ranked := trial%2 == 0
		if ranked && strconv.IntSize < 64 {
			continue // ranked entries need a 64-bit int
		}
		ty, m1, m2, on1, on2 := typedPair(gen, trial, ranked)
		keep1, keep2 := slices.Clone(on1), slices.Clone(on2)

		union := MergeSortedInto(nil, on1, on2)
		var want1, want2 []int
		for typ := 0; typ < ty.NumTypes(); typ++ {
			var run []int
			for _, entry := range union {
				if ty.TypeOf(core.JobOf(entry)) == typ {
					run = append(run, entry)
				}
			}
			var to1, to2 []int
			to1, to2, _, _ = AppendSplitBasicGreedy(ty, m1, m2, 0, 0, run, nil, nil)
			want1, want2 = append(want1, to1...), append(want2, to2...)
		}
		slices.Sort(want1)
		slices.Sort(want2)
		load := func(i int, side []int) core.Cost {
			var sum core.Cost
			for _, entry := range side {
				sum += ty.TypeCosts(i)[ty.TypeOf(core.JobOf(entry))]
			}
			return sum
		}

		s := dirtyScratch()
		to1, to2 := MergeSplitByType(s, ty, m1, m2, on1, on2)
		where := func() string {
			return fmt.Sprintf("trial %d (ranked %v, m1 %d, m2 %d, on1 %v, on2 %v)", trial, ranked, m1, m2, on1, on2)
		}
		if !slices.Equal(on1, keep1) || !slices.Equal(on2, keep2) {
			t.Fatalf("%s: the walk mutated its inputs", where())
		}
		if !slices.Equal(to1, want1) || !slices.Equal(to2, want2) {
			t.Fatalf("%s: sides %v, %v; want %v, %v", where(), to1, to2, want1, want2)
		}
		if !slices.Equal(s.To1, want1) || !slices.Equal(s.To2, want2) {
			t.Fatalf("%s: scratch sides %v, %v; want %v, %v", where(), s.To1, s.To2, want1, want2)
		}
		if in1, in2 := naiveDiff(on1, want1), naiveDiff(on2, want2); !slices.Equal(s.Diff1, in1) || !slices.Equal(s.Diff2, in2) {
			t.Fatalf("%s: arrivals %v, %v; want %v, %v", where(), s.Diff1, s.Diff2, in1, in2)
		}
		if l1, l2 := load(m1, want1), load(m2, want2); s.Load1 != l1 || s.Load2 != l2 {
			t.Fatalf("%s: loads %d, %d; want %d, %d", where(), s.Load1, s.Load2, l1, l2)
		}
		if !slices.Equal(s.Union, []int{-5, -6}) {
			t.Fatalf("%s: the walk wrote the union buffer: %v", where(), s.Union)
		}

		s.Union = append(s.Union[:0], union...)
		to1, to2 = MergeSplitByType(s, ty, m1, m2, s.Union, nil)
		if !slices.Equal(to1, want1) || !slices.Equal(to2, want2) || !slices.Equal(s.Diff2, want2) || len(s.Diff1) != 0 {
			t.Fatalf("%s: on the union alone: sides %v, %v, arrivals %v, %v; want %v, %v, arrivals [], %v", where(), to1, to2, s.Diff1, s.Diff2, want1, want2, want2)
		}
	}
}
