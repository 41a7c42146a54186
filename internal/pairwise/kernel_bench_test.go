package pairwise

import (
	"slices"
	"strconv"
	"sync"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// The scratch-kernel benchmarks run CLB2C on a pair and Greedy Load
// Balancing at the two shapes the repository benchmark measures:
//
//   - threshold: random 200-job unions of a 1,638,400-job two-cluster
//     instance (8192+8192 machines, 100 jobs each, costs U[1,1000]). The two
//     13 MB cost vectors do not fit in cache, so every first read of a job's
//     costs misses, as it does in the sharded engine's sessions.
//   - stable: random 16-job unions of a 512-job instance (32+32 machines),
//     which stays in cache.
//
// Each op splits the next union of a pool drawn once per shape; the pool is
// large enough (4096 unions) that the threshold unions do not warm the cache
// for each other. The unions come in increasing job order, as netsim and the
// DLB2C MinMove protocol pool them, and (the -ranked forms) as entries
// rank<<32 | job in the model's ratio order, as the engines pool DLB2C's
// lists: CLB2C cuts those, Greedy Load Balancing walks them forward on
// cluster 0 and by tie groups from the back on cluster 1 (-ranked-cluster1).

type kernelShape struct {
	name        string
	m1, m2      int
	n, union    int
	tc          *core.TwoCluster
	unions      [][]int
	ranked      [][]int // unions as entries in the ratio order, sorted by entry; nil where int is 32 bits
	prepareOnce sync.Once
	steps       []stepLists // one per ranked union; see prepareSteps
	stepsOnce   sync.Once
}

// stepLists is one pair step of BenchmarkStepBookkeeping: the pair's two
// old lists and the first machine's new list.
type stepLists struct{ onI, onJ, toI []int }

var kernelShapes = []*kernelShape{
	{name: "threshold-200", m1: 8192, m2: 8192, n: 1638400, union: 200},
	{name: "stable-16", m1: 32, m2: 32, n: 512, union: 16},
}

func (k *kernelShape) prepare() {
	k.prepareOnce.Do(func() {
		gen := rng.New(21)
		k.tc = workload.UniformTwoCluster(gen, k.m1, k.m2, k.n, 1, 1000)
		k.unions = make([][]int, 4096)
		for u := range k.unions {
			// Distinct jobs in increasing order: draw, sort, drop
			// repeats, and top up until the union is full.
			jobs := make([]int, 0, k.union)
			for len(jobs) < k.union {
				for len(jobs) < k.union {
					jobs = append(jobs, gen.Intn(k.n))
				}
				slices.Sort(jobs)
				jobs = slices.Compact(jobs)
			}
			k.unions[u] = jobs
		}
		if strconv.IntSize == 64 {
			rank := ratioRanks(k.tc)
			k.ranked = make([][]int, len(k.unions))
			for u, jobs := range k.unions {
				k.ranked[u] = rankedUnion(rank, jobs)
			}
		}
	})
}

func benchKernel(b *testing.B, sameCluster bool) {
	forms := []struct {
		suffix           string
		ranked, cluster1 bool
	}{{"", false, false}, {"-ranked", true, false}, {"-ranked-cluster1", true, true}}
	for _, k := range kernelShapes {
		for _, form := range forms {
			if form.cluster1 && !sameCluster {
				continue
			}
			b.Run(k.name+form.suffix, func(b *testing.B) {
				k.prepare()
				unions := k.unions
				if form.ranked {
					if k.ranked == nil {
						b.Skip("ranked entries need a 64-bit int")
					}
					unions = k.ranked
				}
				// Machines 0 and 1 are in cluster 0, machines m1 and m1+1
				// in cluster 1.
				m1, m2 := 0, k.m1
				switch {
				case form.cluster1:
					m1, m2 = k.m1, k.m1+1
				case sameCluster:
					m2 = 1
				}
				var s Scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					jobs := unions[i%len(unions)]
					if sameCluster {
						SplitGreedyLoadBalancingScratch(&s, k.tc, m1, m2, jobs)
					} else {
						SplitCLB2CScratch(&s, k.tc, m1, m2, jobs)
					}
				}
			})
		}
	}
}

func BenchmarkSplitCLB2CScratch(b *testing.B) { benchKernel(b, false) }

func BenchmarkSplitGreedyLoadBalancingScratch(b *testing.B) { benchKernel(b, true) }

// prepareSteps deals each ranked union's entries at random into two old
// lists of equal size, and takes the first machine's new list from the
// kernel's split of the union: across clusters for half the steps, within
// cluster 0 and within cluster 1 for a quarter each, the mix of a uniform
// random pair of machines.
func (k *kernelShape) prepareSteps() {
	k.prepare()
	k.stepsOnce.Do(func() {
		if k.ranked == nil {
			return
		}
		gen := rng.New(22)
		var s Scratch
		k.steps = make([]stepLists, len(k.ranked))
		for u, union := range k.ranked {
			first := make([]bool, len(union))
			for _, pos := range gen.Perm(len(union))[:len(union)/2] {
				first[pos] = true
			}
			st := &k.steps[u]
			for pos, entry := range union {
				if first[pos] {
					st.onI = append(st.onI, entry)
				} else {
					st.onJ = append(st.onJ, entry)
				}
			}
			switch u % 4 {
			case 0, 1:
				SplitCLB2CScratch(&s, k.tc, 0, k.m1, union)
			case 2:
				SplitGreedyLoadBalancingScratch(&s, k.tc, 0, 1, union)
			default:
				SplitGreedyLoadBalancingScratch(&s, k.tc, k.m1, k.m1+1, union)
			}
			st.toI = slices.Clone(s.To1)
		}
	})
}

// BenchmarkStepBookkeeping times what protocol.Step does around a DLB2C
// split: the merge of the pair's two ranked lists into the union and the
// walk of the first machine's new list against its old one that finds both
// machines' arrivals. The split itself is left out (the new lists are
// drawn once, see prepareSteps), so this is the session layer's overhead
// over the kernel, at the threshold shape (two lists of 100 entries of a
// 16,384-machine model) and the stable one (8 + 8).
func BenchmarkStepBookkeeping(b *testing.B) {
	for _, k := range kernelShapes {
		b.Run(k.name, func(b *testing.B) {
			k.prepareSteps()
			if k.steps == nil {
				b.Skip("ranked entries need a 64-bit int")
			}
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := &k.steps[i%len(k.steps)]
				s.Union = MergeSortedInto(s.Union[:0], st.onI, st.onJ)
				s.Diff1, s.Diff2 = AppendMoves(s.Diff1[:0], s.Diff2[:0], st.onI, st.toI)
			}
		})
	}
}

// typedShape is BenchmarkMergeSplitByType's instance, churn's: 8192
// machines, 2^19 jobs of 5 types with costs U[1,100], RoundRobin, each
// machine's 64 jobs as a list in the type order. settled holds the same
// lists after 8 rounds of random pairs stepped by MergeSplitByType; pairs
// is a pool of random pairs of distinct machines.
type typedShape struct {
	once             sync.Once
	ty               *core.Typed
	initial, settled [][]int
	pairs            [][2]int
}

var churnShape typedShape

func (k *typedShape) prepare() {
	k.once.Do(func() {
		const m, n, types, rounds = 8192, 1 << 19, 5, 8
		gen := rng.New(23)
		k.ty = workload.UniformTyped(gen, m, n, types, 1, 100)
		order, _ := k.ty.TypeOrder()
		a := core.RoundRobin(k.ty)
		k.initial = make([][]int, m)
		a.FillOrderedLists(k.initial, make([]int, n), order)
		k.settled = make([][]int, m)
		for i, list := range k.initial {
			k.settled[i] = slices.Clone(list)
		}
		var s Scratch
		perm := make([]int, m)
		for r := 0; r < rounds; r++ {
			gen.PermInto(perm)
			for p := 0; p+1 < m; p += 2 {
				i, j := perm[p], perm[p+1]
				toI, toJ := MergeSplitByType(&s, k.ty, i, j, k.settled[i], k.settled[j])
				k.settled[i] = append(k.settled[i][:0], toI...)
				k.settled[j] = append(k.settled[j][:0], toJ...)
			}
		}
		k.pairs = make([][2]int, 4096)
		for p := range k.pairs {
			i := gen.Intn(m)
			k.pairs[p] = [2]int{i, gen.Pick(m, i)}
		}
	})
}

// BenchmarkMergeSplitByType times MJTB's pair step, the one walk that
// merges two ranked lists, splits each type with BasicGreedy and records
// the arrivals and loads, at churn's shape: each op steps the next random
// pair of the pool without writing the sides back, on the RoundRobin lists
// (initial), where a step moves half its entries, or on the lists after 8
// rounds (settled), where it moves about 30%: the moved-or-kept test is
// easier to predict there, the order of the two lists' heads is not.
func BenchmarkMergeSplitByType(b *testing.B) {
	if strconv.IntSize < 64 {
		b.Skip("ranked entries need a 64-bit int")
	}
	for _, form := range []string{"initial", "settled"} {
		b.Run(form, func(b *testing.B) {
			churnShape.prepare()
			lists := churnShape.initial
			if form == "settled" {
				lists = churnShape.settled
			}
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				p := churnShape.pairs[op%len(churnShape.pairs)]
				MergeSplitByType(&s, churnShape.ty, p[0], p[1], lists[p[0]], lists[p[1]])
			}
		})
	}
}
