// Package pairwise implements the two-machine balancing kernels that the
// decentralized protocols are built from:
//
//   - BasicGreedy (Algorithm 2): earliest-completion-time greedy over the
//     union of the two machines' jobs; optimal when all jobs are of one type.
//   - GreedyLoadBalancing (Algorithm 6): same-cluster rebalancing that sorts
//     the union by cluster cost ratio and assigns each job to the less
//     loaded machine.
//   - CLB2C on a pair: Algorithm 5 run on two singleton clusters, used by
//     DLB2C when the two machines belong to different clusters.
//   - LargestFirst: the same greedy as GreedyLoadBalancing in decreasing
//     job size, used by DLBKC within a cluster;
//   - BasicGreedy per job type (Algorithm 4's pair step), as one walk over
//     the two machines' job lists: MergeSplitByType.
//
// The kernels are pure: given the pooled job set they return the partition
// (jobs for the first machine, jobs for the second) without touching any
// shared state, appending into caller-owned buffers or a Scratch, and they
// return or leave on the scratch the two loads they summed as they placed
// the jobs. Every engine runs a pair step through protocol.Step on sorted
// per-machine job lists: merge the two lists (MergeSortedInto), split the
// union, and diff each new side against the old list (AppendDiff) to find
// the jobs that moved. MJTB's step is MergeSplitByType, which does all
// three in one walk, and the MinMove protocols transfer jobs between the
// lists in place of the merge and split.
//
// The kernels pool job-list entries, not bare jobs: every kernel reads the
// job from an entry's low 32 bits (core.JobOf), and the engines keep each
// list sorted by entry, in the protocol's list order (see
// protocol.Protocol). In increasing job order an entry is the job itself;
// DLB2C keeps its lists in the model's ratio order, entries rank<<32 | job,
// so a union merged from two of its lists is already in the order of CLB2C
// and Greedy Load Balancing (or, for a same-cluster pair on cluster 1, in
// its group-reversed form) and core.OrderJobs returns it without sorting.
//
// Each side a kernel returns is an ordered subsequence of its input, so a
// union passed sorted by entry comes back as two sides sorted by entry,
// ready to become the machines' job lists. The ordering kernels
// (GreedyLoadBalancing, CLB2C, LargestFirst) get there by ordering the
// pooled jobs with core.OrderJobs, deciding a side per input position, and
// writing both sides in input order with Scratch.Emit. The *Loaded
// variants are the exception: they return sides in placement order, which
// the dynamic simulator uses as each machine's queue.
//
// All kernels are deterministic functions of the pooled job set (not of how
// the pair currently splits it), which makes them idempotent: applying the
// same kernel to the same pair twice in a row leaves the partition
// unchanged. Stability detection relies on this.
package pairwise

import "hetlb/internal/core"

// Union returns the jobs currently assigned to either machine, in increasing
// job order, by an O(n) scan of the job→machine map: the pooled set the
// kernel tests split.
func Union(a *core.Assignment, m1, m2 int) []int {
	var jobs []int
	for j := 0; j < a.Model().NumJobs(); j++ {
		if i := a.MachineOf(j); i == m1 || i == m2 {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// AppendSplitBasicGreedy implements Algorithm 2, appending into
// caller-owned buffers (reused capacity, no allocation in steady state):
// each job of jobs (in the given order; callers pass increasing job index)
// goes to the machine where it would complete earliest given the loads
// accumulated so far, ties to the lower-indexed machine (so the kernel is a
// function of the unordered pair and stability is well defined). The greedy
// loads start at zero regardless of existing buffer content, and the last
// two results are their final values, the loads the split gives m1 and m2.
// When the jobs all have the same cost per machine (one job type), the
// result is an optimal two-machine schedule (Lemma 3).
//
//hetlb:noalloc
func AppendSplitBasicGreedy(m core.CostModel, m1, m2 int, jobs, to1, to2 []int) (_, _ []int, l1, l2 core.Cost) {
	if m1 > m2 {
		to2, to1, l2, l1 = AppendSplitBasicGreedy(m, m2, m1, jobs, to2, to1)
		return to1, to2, l1, l2
	}
	for _, j := range jobs {
		job := core.JobOf(j)
		c1, c2 := m.Cost(m1, job), m.Cost(m2, job)
		if l1+c1 <= l2+c2 {
			to1 = append(to1, j)
			l1 += c1
		} else {
			to2 = append(to2, j)
			l2 += c2
		}
	}
	return to1, to2, l1, l2
}

// MergeSplitByType is the pair step of MJTB (Algorithm 4) on two machines'
// job lists on1 and on2, each sorted by entry and not mutated: one walk
// merges the two lists and splits every job type on its own with
// BasicGreedy, per-type loads starting at zero and ties to the
// lower-indexed machine, as AppendSplitBasicGreedy splits one type. It
// appends each entry to its side, s.To1 for m1 and s.To2 for m2 as the
// sides are returned, and also to that side's arrivals, s.Diff1 or s.Diff2,
// when the entry changes machine; it leaves the two machines' new loads in
// s.Load1 and s.Load2. Each machine's per-type costs are read once, from
// ty.TypeCosts. Of the other buffers it writes only the per-type loads of
// job-order lists, so on1 may alias s.Union.
//
// On lists in ty's TypeOrder an entry's rank (entry>>32) gives its type:
// ranks only grow along the walk, so it walks one type at a time, up to
// the entry that reaches the next type's first rank, and no entry reads
// TypeOf. Lists in increasing job order carry no ranks, and there each
// entry reads TypeOf. Every type's entries come in increasing job index
// either way, the order in which Algorithm 4 balances a type, so both kinds
// of list give the same partition.
//
//hetlb:noalloc
func MergeSplitByType(s *Scratch, ty *core.Typed, m1, m2 int, on1, on2 []int) (to1, to2 []int) {
	lo, hi := m1, m2
	onLo, onHi := on1, on2
	if m1 > m2 {
		lo, hi = m2, m1
		onLo, onHi = on2, on1
	}
	w := typedWalk{
		toLo: s.To1[:0], toHi: s.To2[:0], inLo: s.Diff1[:0], inHi: s.Diff2[:0],
		cLo: ty.TypeCosts(lo), cHi: ty.TypeCosts(hi),
	}
	if hasRank(onLo) || hasRank(onHi) {
		_, bounds := ty.TypeOrder()
		w.walkRanked(bounds, onLo, onHi)
	} else {
		k := len(w.cLo)
		s.own, s.other = core.Resize(s.own, k), core.Resize(s.other, k)
		clear(s.own)
		clear(s.other)
		w.walkJobOrder(ty, s.own, s.other, onLo, onHi)
	}
	if m1 > m2 {
		s.To1, s.To2, s.Diff1, s.Diff2, s.Load1, s.Load2 = w.toHi, w.toLo, w.inHi, w.inLo, w.loadHi, w.loadLo
	} else {
		s.To1, s.To2, s.Diff1, s.Diff2, s.Load1, s.Load2 = w.toLo, w.toHi, w.inLo, w.inHi, w.loadLo, w.loadHi
	}
	return s.To1, s.To2
}

// hasRank reports whether a sorted list's first entry carries a rank
// (entry>>32 is not 0). No entry in increasing job order does, and in a
// list order every entry but the one of rank 0 does, so of two lists in a
// list order one answers true unless that entry is their whole union, and
// MergeSplitByType then walks it as job order, which gives the same split.
func hasRank(list []int) bool {
	return len(list) > 0 && uint64(list[0])>>32 != 0
}

// typedWalk is the state of MergeSplitByType in the canonical orientation:
// lo is the lower-indexed machine, which wins ties. toLo and toHi are the
// sides, inLo and inHi the arrivals on each, cLo and cHi the two machines'
// costs by type, and loadLo and loadHi their loads once walked.
type typedWalk struct {
	toLo, toHi, inLo, inHi []int
	cLo, cHi               []core.Cost
	loadLo, loadHi         core.Cost
}

// walkRanked walks lists in the type order whose type t holds ranks
// bounds[t] to bounds[t+1]-1: one type at a time, with that type's two
// costs and two loads in registers.
//
//hetlb:noalloc
func (w *typedWalk) walkRanked(bounds []int, onLo, onHi []int) {
	toLo, toHi, inLo, inHi := w.toLo, w.toHi, w.inLo, w.inHi
	x, y := 0, 0
	for t := 0; t < len(w.cLo) && (x < len(onLo) || y < len(onHi)); t++ {
		next := uint64(bounds[t+1]) << 32 // the smallest entry of a later type
		c0, c1 := w.cLo[t], w.cHi[t]
		var l0, l1 core.Cost
		for {
			var entry int
			var fromLo bool
			if x < len(onLo) && uint64(onLo[x]) < next && (y == len(onHi) || onLo[x] < onHi[y]) {
				entry, fromLo = onLo[x], true
				x++
			} else if y < len(onHi) && uint64(onHi[y]) < next {
				entry = onHi[y]
				y++
			} else {
				break
			}
			if l0+c0 <= l1+c1 {
				l0 += c0
				toLo = append(toLo, entry)
				if !fromLo {
					inLo = append(inLo, entry)
				}
			} else {
				l1 += c1
				toHi = append(toHi, entry)
				if fromLo {
					inHi = append(inHi, entry)
				}
			}
		}
		w.loadLo += l0
		w.loadHi += l1
	}
	w.toLo, w.toHi, w.inLo, w.inHi = toLo, toHi, inLo, inHi
}

// walkJobOrder walks lists in increasing job order, where the types
// interleave: each entry reads its type, whose loads so far on the two
// machines are lLo[t] and lHi[t] (all zero on entry).
//
//hetlb:noalloc
func (w *typedWalk) walkJobOrder(ty *core.Typed, lLo, lHi []core.Cost, onLo, onHi []int) {
	toLo, toHi, inLo, inHi := w.toLo, w.toHi, w.inLo, w.inHi
	for x, y := 0, 0; x < len(onLo) || y < len(onHi); {
		var entry int
		fromLo := y == len(onHi) || x < len(onLo) && onLo[x] < onHi[y]
		if fromLo {
			entry = onLo[x]
			x++
		} else {
			entry = onHi[y]
			y++
		}
		t := ty.TypeOf(core.JobOf(entry))
		if lLo[t]+w.cLo[t] <= lHi[t]+w.cHi[t] {
			lLo[t] += w.cLo[t]
			toLo = append(toLo, entry)
			if !fromLo {
				inLo = append(inLo, entry)
			}
		} else {
			lHi[t] += w.cHi[t]
			toHi = append(toHi, entry)
			if fromLo {
				inHi = append(inHi, entry)
			}
		}
	}
	for t := range lLo {
		w.loadLo += lLo[t]
		w.loadHi += lHi[t]
	}
	w.toLo, w.toHi, w.inLo, w.inHi = toLo, toHi, inLo, inHi
}

// SplitGreedyLoadBalancingScratch implements Algorithm 6 for two machines
// of the same cluster: the pooled jobs are taken in increasing cost ratio of
// the pair's own cluster over the other cluster, and each job goes to the
// machine with the smaller accumulated load (ties to the lower-indexed
// machine, making the kernel symmetric in its arguments). The returned
// slices alias s.To1/s.To2 and are ordered subsequences of jobs, and the
// loads of m1 and m2 are left in s.Load1 and s.Load2. No allocation in
// steady state.
//
// The ratio order does not change the loads (both machines price jobs
// identically) but it is essential to the stable-state analysis of
// Theorem 7: it guarantees that the job of maximal ratio on the makespan
// machine is placed last.
//
//hetlb:noalloc
func SplitGreedyLoadBalancingScratch(s *Scratch, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: GreedyLoadBalancing requires machines of the same cluster")
	}
	return s.splitGreedy(core.ByRatio, c, m1, m2, jobs)
}

// SplitLargestFirstScratch splits the pooled jobs of two machines of the
// same cluster (of a model with any number of clusters) largest job first
// (ties by index), each job to the machine with the smaller accumulated
// load, ties to the lower-indexed machine so the kernel is symmetric. The
// returned slices alias s.To1/s.To2 and are ordered subsequences of jobs,
// and the loads of m1 and m2 are left in s.Load1 and s.Load2. DLBKC runs it
// within a cluster.
//
//hetlb:noalloc
func SplitLargestFirstScratch(s *Scratch, c core.Clustered, m1, m2 int, jobs []int) (to1, to2 []int) {
	if c.ClusterOf(m1) != c.ClusterOf(m2) {
		panic("pairwise: a largest-first split requires machines of the same cluster")
	}
	return s.splitGreedy(core.BySize, c, m1, m2, jobs)
}

// AppendSplitSameCost rebalances two machines that price every job
// identically (identical machines, or any single-cluster model): each job,
// in the given order, goes to the machine with the smaller accumulated load.
// This is BasicGreedy specialized to equal costs and is the kernel used for
// the homogeneous one-cluster experiments (Section VII.A). Like
// AppendSplitBasicGreedy it appends into caller-owned buffers, the loads
// start at zero for this call, and it returns their final values.
//
//hetlb:noalloc
func AppendSplitSameCost(m core.CostModel, m1, m2 int, jobs, to1, to2 []int) (_, _ []int, l1, l2 core.Cost) {
	if m1 > m2 {
		to2, to1, l2, l1 = AppendSplitSameCost(m, m2, m1, jobs, to2, to1)
		return to1, to2, l1, l2
	}
	for _, j := range jobs {
		if l1 <= l2 {
			to1 = append(to1, j)
			l1 += m.Cost(m1, core.JobOf(j))
		} else {
			to2 = append(to2, j)
			l2 += m.Cost(m2, core.JobOf(j))
		}
	}
	return to1, to2, l1, l2
}

// SplitCLB2CScratch runs Algorithm 5 on two singleton clusters. mA and mB
// may be passed in either order; the returned toA/toB correspond to mA/mB
// respectively. The jobs are taken in increasing cluster-0/1 cost ratio; at
// each step the head job is tentatively placed on the cluster-0 machine and
// the tail job on the cluster-1 machine, and the placement that finishes
// earlier is committed (ties favor cluster 0). The returned slices alias
// s.To1/s.To2 and are ordered subsequences of jobs; the loads of mA and mB
// are left in s.Load1 and s.Load2.
//
//hetlb:noalloc
func SplitCLB2CScratch(s *Scratch, c core.Clustered, mA, mB int, jobs []int) (toA, toB []int) {
	if c.ClusterOf(mA) == c.ClusterOf(mB) {
		panic("pairwise: CLB2C on a pair requires machines of different clusters")
	}
	s.orderBy(core.ByRatio, c, 0, jobs)
	second := s.Sides(len(jobs))
	var l0, l1 core.Cost
	lo, hi := 0, len(jobs)-1
	for lo <= hi {
		head, tail := int(uint32(s.keys[lo])), int(uint32(s.keys[hi]))
		c0 := l0 + s.own[head]
		c1 := l1 + s.other[tail]
		if c0 <= c1 {
			l0 = c0
			lo++
		} else {
			second[tail] = true
			l1 = c1
			hi--
		}
	}
	to0, to1 := s.Emit(jobs)
	if c.ClusterOf(mA) == 1 {
		s.Load1, s.Load2 = l1, l0
		return to1, to0
	}
	s.Load1, s.Load2 = l0, l1
	return to0, to1
}
