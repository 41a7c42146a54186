package central

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
)

// FuzzMinLoads holds the loser tree to a linear scan. An input is a
// machine count (1 to 300, so most trees have padded leaves), a layout (the
// machines 0..m-1 in order, a sorted subset of 0..3m-1, or the same subset
// shuffled), a seed for the subset and the start loads, and one byte per
// raise of the least-loaded machine. Start loads fall in classes that tie
// (0, 0..3, 2^62-3..2^62) or spread up to 2^62; a raise adds 0, a small
// amount, or a power of two up to 2^52. After the build and after every
// raise, the tree's winner and its load must be the least (load, machine)
// of the scan.
func FuzzMinLoads(f *testing.F) {
	f.Fuzz(func(t *testing.T, count uint16, layout uint8, seed uint64, raises []byte) {
		if len(raises) > 512 {
			raises = raises[:512] // 512 raises of at most 2^52 keep loads below 2^63
		}
		m := 1 + int(count)%300
		gen := rng.New(seed)
		machines := seq(0, m)
		if layout%3 != 0 {
			universe := seq(0, 3*m)
			gen.ShuffleInts(universe)
			machines = universe[:m]
			if layout%3 == 1 {
				slices.Sort(machines)
			}
		}
		sizes := make([]core.Cost, m)
		for l := range sizes {
			switch gen.Intn(4) {
			case 0:
				sizes[l] = 0
			case 1:
				sizes[l] = gen.IntRange(0, 3)
			case 2:
				sizes[l] = 1<<62 - gen.IntRange(0, 3)
			default:
				sizes[l] = gen.IntRange(0, 1<<62)
			}
		}
		// Job l, of size sizes[l], starts machine machines[l] at that load.
		model, err := core.NewIdentical(3*m, sizes)
		if err != nil {
			t.Fatal(err)
		}
		a := core.NewAssignment(model)
		load := make([]core.Cost, 3*m)
		for l, i := range machines {
			a.Assign(l, i)
			load[i] = sizes[l]
		}
		tree := newLoserTree(a, machines)
		check := func(step int) {
			t.Helper()
			want := machines[0]
			for _, i := range machines {
				if load[i] < load[want] || load[i] == load[want] && i < want {
					want = i
				}
			}
			if got, l := tree.min(); got != want || l != load[want] {
				t.Fatalf("%d machines %v, step %d: tree has machine %d at load %d, scan %d at %d",
					m, machines, step, got, l, want, load[want])
			}
		}
		check(0)
		for step, b := range raises {
			var by core.Cost
			switch b % 4 {
			case 0:
			case 1:
				by = core.Cost(b >> 2)
			default:
				by = 1 << ((b >> 2) % 53)
			}
			i, l := tree.min()
			load[i] = l + by
			tree.raiseMin(l + by)
			check(step + 1)
		}
	})
}
