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
