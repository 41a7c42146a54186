package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"hetlb/internal/rng"
)

// refJobOrder is the oracle of OrderJobs: positions 0..n-1 sorted with
// slices.SortFunc by the exact comparator of order o and the id tie break.
// It is exact while every cross product CompareRatios forms fits in an
// int64.
func refJobOrder(o JobOrder, own, other []Cost, ids []int) []int {
	id := func(p int) int {
		if ids == nil {
			return p
		}
		return ids[p]
	}
	positions := make([]int, len(own))
	for p := range positions {
		positions[p] = p
	}
	slices.SortFunc(positions, func(x, y int) int {
		var c int
		if o == ByRatio {
			c = CompareRatios(own[x], other[x], own[y], other[y])
		} else {
			c = cmp.Compare(own[y], own[x])
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(id(x), id(y))
	})
	return positions
}

// fuzzCosts decodes three bytes per job: a class and a 16-bit value v.
// The classes are jobs free on both clusters, on one, small costs that tie
// often, distinct ratios near 2^20 or 2^-20 that share a float32 image
// (costs near 2^30 against near 2^10), and costs on both sides of 2^31. No
// cost exceeds 2^31+2^29, so every cross product stays below 2^63, inside
// the domain of OrderJobs, where the oracle is exact.
func fuzzCosts(data []byte) (own, other []Cost) {
	small := func(v Cost) Cost { return 1 + v%1024 }
	big := func(v Cost) Cost { return 1<<31 - 1<<15 + v<<13 }
	n := len(data) / 3
	own, other = make([]Cost, n), make([]Cost, n)
	for p := range own {
		class, v := data[3*p]%9, Cost(data[3*p+1])|Cost(data[3*p+2])<<8
		var c, d Cost
		switch class {
		case 0:
			c, d = 0, 0
		case 1:
			c, d = 0, small(v)
		case 2:
			c, d = small(v), 0
		case 3:
			c, d = 1+v%32, 1+(v>>5)%32
		case 4:
			c, d = 1<<30+v, 1<<10+v%4
		case 5:
			c, d = 1<<10+v%4, 1<<30+v
		case 6:
			c, d = big(v), small(v)
		case 7:
			c, d = small(v), big(v)
		default:
			c, d = big(v), big(v^0x5555)
		}
		own[p], other[p] = c, d
	}
	return own, other
}

// FuzzJobOrder checks OrderJobs in both orders against the comparator-sort
// oracle, with the positions as ids or with ids that decrease, reusing one
// pair of buffers across the calls. Each instance is then fed again in
// presorted forms, with ids rank<<32 | id, which OrderJobs sorts like any
// other input: permuted into its oracle ratio order, as the engines' DLB2C
// job lists pool it; the same sequence with own and other swapped, which a
// same-cluster pair on cluster 1 receives (ratio descending, ids ascending
// within ties); and the size order as is and with its groups of equal sizes
// reversed. Every form must come back in the oracle order.
func FuzzJobOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, reverseIDs bool, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		own, other := fuzzCosts(data)
		var ids []int
		if reverseIDs {
			ids = make([]int, len(own))
			for p := range ids {
				ids[p] = len(ids) - p
			}
		}
		var keys, buf []uint64
		check := func(form string, o JobOrder, own, other []Cost, ids []int) {
			t.Helper()
			keys, buf = OrderJobs(o, own, other, ids, keys, buf)
			want := refJobOrder(o, own, other, ids)
			if len(keys) != len(want) {
				t.Fatalf("%s, order %d: %d keys for %d jobs", form, o, len(keys), len(want))
			}
			for k, key := range keys {
				if int(uint32(key)) != want[k] {
					t.Fatalf("%s, order %d, %d jobs: position %d at %d, oracle has %d", form, o, len(own), uint32(key), k, want[k])
				}
			}
		}
		for _, o := range []JobOrder{ByRatio, BySize} {
			check("input", o, own, other, ids)
		}
		// permute presents the jobs in the given order of positions, with
		// ids rank<<32 | id, rank being the place in that order.
		permute := func(order []int) (pOwn, pOther []Cost, pIDs []int) {
			for k, p := range order {
				id := p
				if ids != nil {
					id = ids[p]
				}
				pOwn, pOther, pIDs = append(pOwn, own[p]), append(pOther, other[p]), append(pIDs, int(uint64(k)<<32|uint64(id)))
			}
			return pOwn, pOther, pIDs
		}
		sOwn, sOther, sIDs := permute(refJobOrder(ByRatio, own, other, ids))
		check("oracle order", ByRatio, sOwn, sOther, sIDs)
		check("cluster-1 form", ByRatio, sOther, sOwn, sIDs)
		// The size order, as is and with its groups of equal sizes reversed.
		bySize := refJobOrder(BySize, own, other, ids)
		zOwn, zOther, zIDs := permute(bySize)
		check("size order", BySize, zOwn, zOther, zIDs)
		var reversed []int
		for end := len(bySize); end > 0; {
			start := end - 1
			for start > 0 && own[bySize[start-1]] == own[bySize[end-1]] {
				start--
			}
			reversed = append(reversed, bySize[start:end]...)
			end = start
		}
		rOwn, rOther, rIDs := permute(reversed)
		check("size order, groups reversed", BySize, rOwn, rOther, rIDs)
	})
}

// farey calls yield with every reduced fraction a/b, 0 ≤ a ≤ b ≤ n, in
// increasing order: the Farey sequence of order n, each term found from
// the two before it.
func farey(n int, yield func(a, b int)) {
	a, b, c, d := 0, 1, 1, n
	yield(a, b)
	for c <= n {
		yield(c, d)
		k := (n + b) / d
		a, b, c, d = c, d, k*c-a, k*d-b
	}
}

// ratioImageCollisions walks every distinct ratio a/b with terms up to n
// in increasing exact order, 0/1 first and 1/0 (+Inf) last, and returns
// each neighbouring pair whose float32 images do not strictly increase, as
// {a, b, c, d} for a/b < c/d. The ratios up to 1 are the Farey sequence;
// those above are b/(b-a) for its terms a/b in (0, 1), in the same order.
func ratioImageCollisions(n int) [][4]int {
	var out [][4]int
	pa, pb, prev := -1, -1, uint64(0)
	next := func(a, b int) {
		img := ratioImage(Cost(a), Cost(b))
		if pa >= 0 && img <= prev {
			out = append(out, [4]int{pa, pb, a, b})
		}
		pa, pb, prev = a, b, img
	}
	farey(n, next)
	farey(n, func(a, b int) {
		if 0 < a && a < b {
			next(b, b-a)
		}
	})
	next(1, 0)
	return out
}

// TestRatioImagesExactBelowBound proves OrderJobs' ratio bound: over every
// ratio whose terms are below ratioExactBound, distinct ratios have
// distinct float32 images, so a tie of images is an exact tie. The same
// walk run to 3000 finds the four collisions past the bound, the first to
// appear as the bound grows being 2949/2948 against 2948/2947.
func TestRatioImagesExactBelowBound(t *testing.T) {
	n := int(ratioExactBound - 1)
	if got := ratioImageCollisions(n); len(got) != 0 {
		t.Fatalf("terms up to %d: %d ratio pairs share a float32 image, the first %d/%d and %d/%d", n, len(got), got[0][0], got[0][1], got[0][2], got[0][3])
	}
	if testing.Short() {
		return
	}
	got := ratioImageCollisions(3000)
	if len(got) != 4 || !slices.Contains(got, [4]int{2949, 2948, 2948, 2947}) {
		t.Fatalf("terms up to 3000: collisions %v, want four with 2949/2948 against 2948/2947", got)
	}
	for _, c := range got {
		if max(c[0], c[1], c[2], c[3]) < 2949 {
			t.Fatalf("terms up to 3000: collision %d/%d against %d/%d has every term below 2949", c[0], c[1], c[2], c[3])
		}
	}
}

// TestOrderJobsExactImageCases runs OrderJobs on inputs where skipping the
// tie pass would be wrong, each alone and padded past the radix cut-over:
// distinct ratios past the bound that share an image, given against the
// exact order; distinct sizes past 2^24 that share one; and ties of exact
// ratios and sizes whose ids descend.
func TestOrderJobsExactImageCases(t *testing.T) {
	cases := []struct {
		name       string
		own, other []Cost
		ids        []int
	}{
		{"ratios past the bound", []Cost{2948, 2949}, []Cost{2947, 2948}, nil},
		{"sizes past 2^24", []Cost{1 << 24, 1<<24 + 1}, []Cost{1, 1}, nil},
		{"ratio ties, ids descending", []Cost{1, 2, 3, 0}, []Cost{1, 2, 3, 0}, []int{9, 7, 5, 3}},
		{"size ties, ids descending", []Cost{5, 5, 5, 5}, []Cost{1, 2, 3, 4}, []int{9, 7, 5, 3}},
	}
	for _, c := range cases {
		for _, reps := range []int{1, radixCutover} {
			var own, other []Cost
			var ids []int
			for r := 0; r < reps; r++ {
				own, other = append(own, c.own...), append(other, c.other...)
				for p := range c.own {
					if c.ids == nil {
						break
					}
					ids = append(ids, c.ids[p]-r*len(c.ids)*10)
				}
			}
			for _, o := range []JobOrder{ByRatio, BySize} {
				keys, _ := OrderJobs(o, own, other, ids, nil, nil)
				want := refJobOrder(o, own, other, ids)
				for k, key := range keys {
					if int(uint32(key)) != want[k] {
						t.Fatalf("%s, %d jobs, order %d: position %d at %d, oracle has %d", c.name, len(own), o, uint32(key), k, want[k])
					}
				}
			}
		}
	}
}

// TestOrderJobsLargeCounts runs OrderJobs past FuzzJobOrder's 512-job cap,
// in both orders, against the oracle: costs from fuzzCosts' classes and
// U[1,1000] at 4,096 and 131,072 jobs and on both sides of radixCutover;
// ratios in [1, 1.5), whose images share their top digit, so the radix
// skips that pass; and jobs that all tie, so it skips every pass. Up to
// 4,096 jobs each input also runs with ids that descend, which the tie
// pass must put back in id order.
func TestOrderJobsLargeCounts(t *testing.T) {
	gen := rng.New(16)
	families := []struct {
		name  string
		costs func(n int) (own, other []Cost)
	}{
		{"fuzz classes", func(n int) ([]Cost, []Cost) {
			data := make([]byte, 3*n)
			for i := range data {
				data[i] = byte(gen.Uint64())
			}
			return fuzzCosts(data)
		}},
		{"U[1,1000]", func(n int) ([]Cost, []Cost) { return uniformCosts(gen, n) }},
		{"one top digit", func(n int) ([]Cost, []Cost) {
			own, other := make([]Cost, n), make([]Cost, n)
			for p := range own {
				own[p], other[p] = gen.IntRange(1000, 1499), 1000
			}
			return own, other
		}},
		{"all tie", func(n int) ([]Cost, []Cost) {
			own, other := make([]Cost, n), make([]Cost, n)
			for p := range own {
				own[p], other[p] = 7, 7
			}
			return own, other
		}},
	}
	for _, f := range families {
		for _, n := range []int{radixCutover - 1, radixCutover, 4096, 131072} {
			own, other := f.costs(n)
			idSets := [][]int{nil}
			if n <= 4096 {
				descending := make([]int, n)
				for p := range descending {
					descending[p] = n - p
				}
				idSets = append(idSets, descending)
			}
			for _, ids := range idSets {
				for _, o := range []JobOrder{ByRatio, BySize} {
					keys, _ := OrderJobs(o, own, other, ids, nil, nil)
					want := refJobOrder(o, own, other, ids)
					for k, key := range keys {
						if int(uint32(key)) != want[k] {
							t.Fatalf("%s, %d jobs, order %d, ids descending %t: position %d at %d, oracle has %d", f.name, n, o, ids != nil, uint32(key), k, want[k])
						}
					}
				}
			}
		}
	}
}

// uniformCosts draws n jobs' costs on two clusters, each U[1,1000] like the
// benchmark's instances (workload.UniformTwoCluster).
func uniformCosts(gen *rng.RNG, n int) (own, other []Cost) {
	own, other = make([]Cost, n), make([]Cost, n)
	for p := range own {
		own[p], other[p] = gen.IntRange(1, 1000), gen.IntRange(1, 1000)
	}
	return own, other
}

// BenchmarkOrderJobs times OrderJobs' ratio order, buffers reused, at the
// key counts of the CLB2C reference's callers and of a DLB2C pair step,
// costs U[1,1000]: a 200-job union of two machines' lists in job order
// (ids ascending, from a 1,638,400-job model, as on the Figure 5 threshold
// workload), a 512-job model (the stable workload's items), a 768-job
// model (a replicate instance, Figure 3's paper scale) and the 1,638,400-job
// threshold model, which -short skips. Under radixCutover keys the order
// presorts with slices.Sort, from it with radixSortHigh.
func BenchmarkOrderJobs(b *testing.B) {
	for _, n := range []int{200, 512, 768, 1638400} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			if n > 1<<20 && testing.Short() {
				b.Skip("1.6M-job order; -short keeps bench-smoke cheap")
			}
			gen := rng.New(uint64(n))
			own, other := uniformCosts(gen, n)
			var ids []int
			if n == 200 {
				ids = gen.Perm(1638400)[:n]
				slices.Sort(ids)
			}
			keys, buf := make([]uint64, n), make([]uint64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys, buf = OrderJobs(ByRatio, own, other, ids, keys, buf)
			}
		})
	}
}
