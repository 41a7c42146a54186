// Package central implements the centralized scheduling algorithms used by
// the paper: Graham's List Scheduling and LPT on identical machines, the
// Earliest Completion Time greedy on unrelated machines, and the paper's own
// CLB2C (Centralized Load Balancing for Two Clusters, Algorithm 5), a
// 2-approximation for two clusters of identical machines under the
// hypothesis that no single job is longer than the optimal makespan
// (Theorem 6).
//
// CLB2C doubles as the kernel of the decentralized DLB2C: balancing one
// machine from each cluster is CLB2C on two singleton "clusters".
//
// CLB2C and OnlineLS find the least-loaded machine with a loser tree that
// holds each machine's load itself, so the machine lists CLB2C takes must
// name distinct machines. A placement replays log2(m) branch-free matches
// along one leaf-to-root path.
package central

import (
	"sort"

	"hetlb/internal/core"
)

// ListScheduling assigns the given jobs, in the given order, each to the
// machine that completes it earliest (ECT). On identical machines this is
// Graham's List Scheduling (a 2-approximation); on unrelated machines it is
// the natural greedy (no guarantee, used as a baseline).
//
// jobs may be nil, meaning all jobs of the model in index order. The
// returned assignment is complete with respect to jobs.
func ListScheduling(m core.CostModel, jobs []int) *core.Assignment {
	a := core.NewAssignment(m)
	if jobs == nil {
		jobs = allJobs(m)
	}
	for _, j := range jobs {
		best := 0
		bestC := a.Load(0) + m.Cost(0, j)
		for i := 1; i < m.NumMachines(); i++ {
			if c := a.Load(i) + m.Cost(i, j); c < bestC {
				best, bestC = i, c
			}
		}
		a.Assign(j, best)
	}
	return a
}

// LPT runs Largest Processing Time first on an identical-machines instance:
// jobs sorted by decreasing size, then List Scheduling. It is a
// 4/3-approximation on identical machines.
func LPT(id *core.Identical) *core.Assignment {
	jobs := allJobs(id)
	sort.Slice(jobs, func(a, b int) bool {
		sa, sb := id.Size(jobs[a]), id.Size(jobs[b])
		if sa != sb {
			return sa > sb
		}
		return jobs[a] < jobs[b]
	})
	return ListScheduling(id, jobs)
}

// CLB2C implements Algorithm 5 of the paper on an arbitrary sub-problem: it
// assigns each job of jobs onto one of the machines in ms0 (which must
// belong to cluster 0) or ms1 (cluster 1), mutating a. The jobs must be
// unassigned in a, and ms0 and ms1 must list distinct machines, in any
// order: CLB2C keeps each machine's load in its own loser tree from the
// start loads in a, so a machine listed twice would be two machines.
//
// The jobs are considered sorted by increasing cost ratio p0/p1. At each
// step the head job (relatively cheapest on cluster 0) is tentatively placed
// on the least-loaded machine of ms0 and the tail job on the least-loaded
// machine of ms1; whichever placement finishes earlier is committed. Ties
// favor cluster 0, matching the "≤" of the paper's pseudocode, and a tie in
// load goes to the lower-indexed machine.
//
// Besides a, a call allocates 32 bytes per job (its two costs, its sort key
// and a radix slot) and 16 bytes per padded leaf of the two trees, each
// cluster's machine count rounded up to a power of two.
func CLB2C(a *core.Assignment, m core.Clustered, ms0, ms1, jobs []int) {
	p0, p1 := core.GatherCosts(m, 0, jobs, nil), core.GatherCosts(m, 1, jobs, nil)
	keys, _ := core.OrderJobs(core.ByRatio, p0, p1, jobs, make([]uint64, len(jobs)), make([]uint64, len(jobs)))
	clb2c(a, p0, p1, jobs, keys, ms0, ms1)
}

// blockKeys is how many keys' costs the CLB2C walk gathers at a time from
// each end of the ratio order, a power of two: each gather makes that many
// independent reads, which the CPU overlaps, where reading each cost as its
// key comes up would make one dependent random read per placement. The two
// blocks, 16 KB each, live in the walk's stack frame.
const blockKeys = 2048

// clb2c is CLB2C on the jobs at positions 0..len(p0)-1, which cost p0[pos]
// on cluster 0 and p1[pos] on cluster 1; ids[pos] is the job (pos itself
// when ids is nil). keys are core.OrderJobs' keys in the exact ratio order
// and double as the schedule: once a key's job is placed, its high half
// (the spent ratio image) records the machine, and one pass at the end
// applies every placement to a.
func clb2c(a *core.Assignment, p0, p1 []core.Cost, ids []int, keys []uint64, ms0, ms1 []int) {
	t0, t1 := newLoserTree(a, ms0), newLoserTree(a, ms1)
	// head[k%blockKeys] is the cluster-0 cost of the key k places from the
	// front, tail[k%blockKeys] the cluster-1 cost of the key k places from
	// the back; each block is refilled as its end of the walk reaches a
	// multiple of blockKeys.
	var head, tail [blockKeys]core.Cost
	last := len(keys) - 1
	lo, hi := 0, last
	headNext, tailNext := 0, 0
	for lo <= hi {
		if lo == headNext {
			for b, key := range keys[lo:min(lo+blockKeys, hi+1)] {
				head[b] = p0[uint32(key)]
			}
			headNext += blockKeys
		}
		r := last - hi
		if r == tailNext {
			for b := 0; b < blockKeys && hi-b >= lo; b++ {
				tail[b] = p1[uint32(keys[hi-b])]
			}
			tailNext += blockKeys
		}
		i0, l0 := t0.min()
		i1, l1 := t1.min()
		c0 := l0 + head[lo&(blockKeys-1)]
		c1 := l1 + tail[r&(blockKeys-1)]
		if c0 <= c1 {
			keys[lo] = uint64(i0)<<32 | uint64(uint32(keys[lo]))
			t0.raiseMin(c0)
			lo++
		} else {
			keys[hi] = uint64(i1)<<32 | uint64(uint32(keys[hi]))
			t1.raiseMin(c1)
			hi--
		}
	}
	for _, key := range keys {
		j := int(uint32(key))
		if ids != nil {
			j = ids[j]
		}
		a.Assign(j, int(key>>32))
	}
}

// RunCLB2C builds a complete schedule of all jobs of a two-cluster model
// with CLB2C. This is the centralized reference ("cent" in Figure 5 of the
// paper). On a core.TwoCluster, which caches its ratio order, it takes the
// keys from the model (RatioKeys) over the model's own cost vectors: the
// first call on a model sorts them, and keeps the order the DLB2C engines
// then share; later calls copy the order and sort nothing. Besides the
// assignment it allocates only the keys (and on the first call the radix
// buffer and the kept order), the trees and the machine lists.
func RunCLB2C(m core.Clustered) *core.Assignment {
	a := core.NewAssignment(m)
	ms0 := make([]int, 0, m.ClusterSize(0))
	ms1 := make([]int, 0, m.ClusterSize(1))
	for i := 0; i < m.NumMachines(); i++ {
		if m.ClusterOf(i) == 0 {
			ms0 = append(ms0, i)
		} else {
			ms1 = append(ms1, i)
		}
	}
	if tc, ok := m.(*core.TwoCluster); ok {
		keys, _ := tc.RatioKeys(nil, nil)
		clb2c(a, tc.ClusterCosts(0), tc.ClusterCosts(1), nil, keys, ms0, ms1)
	} else {
		CLB2C(a, m, ms0, ms1, allJobs(m))
	}
	return a
}

func allJobs(m core.CostModel) []int {
	jobs := make([]int, m.NumJobs())
	for j := range jobs {
		jobs[j] = j
	}
	return jobs
}
