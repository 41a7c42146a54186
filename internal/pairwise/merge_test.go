package pairwise

import (
	"slices"
	"testing"

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
