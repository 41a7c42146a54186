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
}

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
