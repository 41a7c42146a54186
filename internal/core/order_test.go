package core

import (
	"cmp"
	"slices"
	"testing"
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
