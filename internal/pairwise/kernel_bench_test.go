package pairwise

import (
	"slices"
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
// for each other.

type kernelShape struct {
	name        string
	m1, m2      int
	n, union    int
	tc          *core.TwoCluster
	unions      [][]int
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
	})
}

func benchKernel(b *testing.B, sameCluster bool) {
	for _, k := range kernelShapes {
		b.Run(k.name, func(b *testing.B) {
			k.prepare()
			// Machine 0 is in cluster 0; machine 1 shares it and machine m1
			// is the first machine of cluster 1.
			other := k.m1
			if sameCluster {
				other = 1
			}
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs := k.unions[i%len(k.unions)]
				if sameCluster {
					SplitGreedyLoadBalancingScratch(&s, k.tc, 0, other, jobs)
				} else {
					SplitCLB2CScratch(&s, k.tc, 0, other, jobs)
				}
			}
		})
	}
}

func BenchmarkSplitCLB2CScratch(b *testing.B) { benchKernel(b, false) }

func BenchmarkSplitGreedyLoadBalancingScratch(b *testing.B) { benchKernel(b, true) }
