package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Assignment is a partition of the jobs of a cost model onto its machines.
// It is the object every balancing algorithm manipulates. Loads are
// maintained incrementally so Makespan and Load are O(1) amortized queries.
//
// An Assignment keeps only the job→machine map and the loads: it has no
// per-machine job index, so Jobs is an O(n) scan. The engines keep sorted
// per-machine job lists of their own (FillOrderedLists builds them in one
// counting pass, in the protocol's list order) and apply each pair step's
// arrivals through Move.
//
// An Assignment is not safe for concurrent mutation; the sharded engine
// (internal/shardgossip) materializes one only on snapshot.
type Assignment struct {
	model     CostModel
	machineOf []int32 // machineOf[job] = machine, or -1 if unassigned
	load      []Cost  // load[machine] = sum of costs of its jobs
	assigned  int     // number of assigned jobs
}

// NewAssignment returns an empty assignment (all jobs unassigned) over the
// given model. The job map holds machines as 32-bit ids, half the memory of
// an int per job, so the model must have at most math.MaxInt32 machines:
// NewTwoCluster and NewIdentical reject larger counts, and NewAssignment
// panics on any model with more.
func NewAssignment(m CostModel) *Assignment {
	if int64(m.NumMachines()) > math.MaxInt32 {
		panic(fmt.Sprintf("core: %d machines; an assignment holds at most %d", m.NumMachines(), math.MaxInt32))
	}
	a := &Assignment{
		model:     m,
		machineOf: make([]int32, m.NumJobs()),
		load:      make([]Cost, m.NumMachines()),
	}
	for j := range a.machineOf {
		a.machineOf[j] = -1
	}
	return a
}

// Model returns the cost model the assignment refers to.
func (a *Assignment) Model() CostModel { return a.model }

// Clone returns a deep copy of the assignment sharing the (immutable) model,
// in three allocations; the state-space exploration (protocol.Explore)
// clones once per pair of every reachable state.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{
		model:     a.model,
		machineOf: append([]int32(nil), a.machineOf...),
		load:      append([]Cost(nil), a.load...),
		assigned:  a.assigned,
	}
}

// JobOf returns the job of a job-list entry: its low 32 bits. The engines
// keep each machine's jobs as entries rank<<32 | job, where rank is the
// job's position in the list order (FillOrderedLists), so a list sorted by
// entry is sorted by that order, and merges and diffs compare entries as
// plain ints. In increasing job order the rank is dropped and an entry is
// the job itself.
func JobOf(entry int) int { return int(uint32(entry)) }

// FillOrderedLists sets lists[i] to the job-list entries of machine i in
// the given order, for every machine; unassigned jobs are on no list. With
// a nil order each entry is the job and the lists are in increasing job
// order; otherwise order[k] is the k-th job of a permutation of all jobs
// and the k-th job's entry is k<<32 | order[k] (see JobOf), which needs a
// 64-bit int and fewer than 2^31 jobs.
//
// lists must have one entry per machine, and backing room for every
// assigned job: the lists are cut from it after a counting pass, so at 10M
// jobs over 100k machines the build is two linear passes, where
// machine-by-machine appends would pay millions of grow-and-copy steps on
// 100k separately reallocated lists. Room in backing beyond the assigned
// jobs is spread over the lists as spare capacity, in proportion to their
// counts (rounded down), so an engine that passes more lets its lists grow
// by that share before any reallocates. Full-slice expressions pin each
// list's capacity, so a list that later outgrows its block reallocates
// privately instead of overwriting its neighbour's.
func (a *Assignment) FillOrderedLists(lists [][]int, backing []int, order []uint32) {
	if order != nil && strconv.IntSize < 64 {
		panic("core: job-list entries in a list order need a 64-bit int")
	}
	counts := make([]int, len(lists))
	for _, i := range a.machineOf {
		if i != -1 {
			counts[i]++
		}
	}
	// The share is spare·c/assigned, in 64 bits: the product passes 2^31
	// at a few million jobs.
	spare := int64(len(backing) - a.assigned)
	start := 0
	for i, c := range counts {
		room := c
		if spare > 0 && c > 0 {
			room += int(spare * int64(c) / int64(a.assigned))
		}
		lists[i] = backing[start : start : start+room]
		start += room
	}
	// Entries are appended in increasing order: sorted by construction.
	if order == nil {
		for j, i := range a.machineOf {
			if i != -1 {
				lists[i] = append(lists[i], j)
			}
		}
		return
	}
	for k, j := range order {
		if i := a.machineOf[j]; i != -1 {
			lists[i] = append(lists[i], int(uint64(k)<<32|uint64(j)))
		}
	}
}

// Assign places job j on the given machine. The job must currently be
// unassigned.
func (a *Assignment) Assign(job, machine int) {
	if a.machineOf[job] != -1 {
		panic(fmt.Sprintf("core: job %d already assigned to machine %d", job, a.machineOf[job]))
	}
	a.machineOf[job] = int32(machine)
	a.load[machine] += a.model.Cost(machine, job)
	a.assigned++
}

// Place puts job j on the given machine without adding its cost to the
// machine's load: a scheduler that keeps its own load sums (CLB2C's loser
// trees) places every job and then writes each load once with SetLoad,
// instead of reading every job's cost again as Assign does. The job must
// currently be unassigned. Until the caller has set the load of every
// machine it placed jobs on, the assignment is inconsistent (Validate).
func (a *Assignment) Place(job, machine int) {
	if a.machineOf[job] != -1 {
		panic(fmt.Sprintf("core: job %d already assigned to machine %d", job, a.machineOf[job]))
	}
	a.machineOf[job] = int32(machine)
	a.assigned++
}

// SetLoad sets a machine's load to a sum its caller kept; see Place.
func (a *Assignment) SetLoad(machine int, load Cost) { a.load[machine] = load }

// Unassign removes job j from its machine. The job must be assigned.
func (a *Assignment) Unassign(job int) {
	i := a.machineOf[job]
	if i == -1 {
		panic(fmt.Sprintf("core: job %d is not assigned", job))
	}
	a.load[i] -= a.model.Cost(int(i), job)
	a.machineOf[job] = -1
	a.assigned--
}

// Move transfers job j to the given machine (assigning it if it was
// unassigned).
func (a *Assignment) Move(job, machine int) {
	if a.machineOf[job] != -1 {
		a.Unassign(job)
	}
	a.Assign(job, machine)
}

// MachineOf returns the machine of job j, or -1 if unassigned.
func (a *Assignment) MachineOf(job int) int { return int(a.machineOf[job]) }

// Load returns the current load of the given machine.
func (a *Assignment) Load(machine int) Cost { return a.load[machine] }

// Loads returns a copy of the load vector.
func (a *Assignment) Loads() []Cost {
	return append([]Cost(nil), a.load...)
}

// NumAssigned returns the number of currently assigned jobs.
func (a *Assignment) NumAssigned() int { return a.assigned }

// Complete reports whether every job is assigned.
func (a *Assignment) Complete() bool { return a.assigned == a.model.NumJobs() }

// Unplaced returns the jobs currently unassigned, in increasing job order —
// empty (nil) for a complete assignment. Partial assignments arise from
// crash plans that lose jobs (the sharded engine's snapshots leave lost
// jobs unassigned); Unplaced is how reports enumerate them.
func (a *Assignment) Unplaced() []int {
	if a.Complete() {
		return nil
	}
	out := make([]int, 0, a.model.NumJobs()-a.assigned)
	for j, i := range a.machineOf {
		if i == -1 {
			out = append(out, j)
		}
	}
	return out
}

// Jobs returns the jobs currently assigned to the given machine, in
// increasing job order, by an O(n) scan of the job→machine map. It serves
// reports and tests; the engines keep job lists of their own.
func (a *Assignment) Jobs(machine int) []int {
	var jobs []int
	for j, i := range a.machineOf {
		if int(i) == machine {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// Makespan returns the maximum machine load, i.e. Cmax of the partition.
func (a *Assignment) Makespan() Cost {
	var max Cost
	for _, l := range a.load {
		if l > max {
			max = l
		}
	}
	return max
}

// ArgMakespan returns a machine achieving the makespan (the smallest index
// among ties).
func (a *Assignment) ArgMakespan() int {
	arg := 0
	for i, l := range a.load {
		if l > a.load[arg] {
			arg = i
		}
	}
	return arg
}

// MinLoad returns the minimum machine load and a machine achieving it.
func (a *Assignment) MinLoad() (Cost, int) {
	arg := 0
	for i, l := range a.load {
		if l < a.load[arg] {
			arg = i
		}
	}
	return a.load[arg], arg
}

// TotalWork returns the sum of all machine loads under the current
// assignment (the "work" W of the paper's proofs).
func (a *Assignment) TotalWork() Cost {
	var w Cost
	for _, l := range a.load {
		w += l
	}
	return w
}

// Validate checks internal consistency: cached loads must equal recomputed
// loads and the assigned counter must match. It returns a descriptive error
// on the first inconsistency found.
func (a *Assignment) Validate() error {
	recomputed := make([]Cost, a.model.NumMachines())
	count := 0
	for j, i := range a.machineOf {
		if i == -1 {
			continue
		}
		if i < 0 || int(i) >= a.model.NumMachines() {
			return fmt.Errorf("core: job %d on invalid machine %d", j, i)
		}
		recomputed[i] += a.model.Cost(int(i), j)
		count++
	}
	for i, l := range recomputed {
		if l != a.load[i] {
			return fmt.Errorf("core: machine %d cached load %d != recomputed %d", i, a.load[i], l)
		}
	}
	if count != a.assigned {
		return fmt.Errorf("core: assigned counter %d != actual %d", a.assigned, count)
	}
	return nil
}

// String renders a compact human-readable view of the assignment, used by
// examples and tests.
func (a *Assignment) String() string {
	s := fmt.Sprintf("Cmax=%d", a.Makespan())
	for i := 0; i < a.model.NumMachines(); i++ {
		s += fmt.Sprintf(" | m%d(load=%d):%v", i, a.load[i], a.Jobs(i))
	}
	return s
}

// RoundRobin assigns all jobs cyclically over the machines; it is the
// standard "arbitrary initial distribution" used to start the decentralized
// protocols.
func RoundRobin(m CostModel) *Assignment {
	a := NewAssignment(m)
	for j := 0; j < m.NumJobs(); j++ {
		a.Assign(j, j%m.NumMachines())
	}
	return a
}

// AllOnMachine assigns every job to one machine. Useful as a pathological
// starting point in convergence tests.
func AllOnMachine(m CostModel, machine int) *Assignment {
	a := NewAssignment(m)
	for j := 0; j < m.NumJobs(); j++ {
		a.Assign(j, machine)
	}
	return a
}

// FromMachineOf builds an assignment from an explicit job→machine mapping.
// Entries equal to -1 are left unassigned.
func FromMachineOf(m CostModel, machineOf []int) (*Assignment, error) {
	if len(machineOf) != m.NumJobs() {
		return nil, fmt.Errorf("core: mapping has %d entries for %d jobs", len(machineOf), m.NumJobs())
	}
	a := NewAssignment(m)
	for j, i := range machineOf {
		if i == -1 {
			continue
		}
		if i < 0 || i >= m.NumMachines() {
			return nil, fmt.Errorf("core: job %d mapped to invalid machine %d", j, i)
		}
		a.Assign(j, i)
	}
	return a, nil
}

// FromLists builds an assignment from per-machine job lists: lists[i] holds
// the job-list entries of machine i (see JobOf), in any order, and a job on
// no list is unassigned. It fills the job map from the lists directly and
// then sums the loads from the model's costs in one pass in job order. It
// returns an error for more lists than machines, an entry whose job is out
// of range, or a job listed twice.
func FromLists(m CostModel, lists [][]int) (*Assignment, error) {
	if len(lists) > m.NumMachines() {
		return nil, fmt.Errorf("core: %d job lists for %d machines", len(lists), m.NumMachines())
	}
	a := NewAssignment(m)
	for i, list := range lists {
		for _, entry := range list {
			j := JobOf(entry)
			if j < 0 || j >= len(a.machineOf) {
				return nil, fmt.Errorf("core: machine %d lists entry %#x, job %d of %d", i, entry, j, len(a.machineOf))
			}
			if prev := a.machineOf[j]; prev != -1 {
				return nil, fmt.Errorf("core: job %d listed on machines %d and %d", j, prev, i)
			}
			a.machineOf[j] = int32(i)
		}
	}
	for j, i := range a.machineOf {
		if i != -1 {
			a.load[i] += m.Cost(int(i), j)
			a.assigned++
		}
	}
	return a, nil
}

// Equal reports whether two assignments place every job identically.
func (a *Assignment) Equal(b *Assignment) bool {
	if len(a.machineOf) != len(b.machineOf) {
		return false
	}
	for j := range a.machineOf {
		if a.machineOf[j] != b.machineOf[j] {
			return false
		}
	}
	return true
}

// Signature returns a canonical string key of the job→machine map, used for
// cycle detection in non-converging DLB2C runs.
func (a *Assignment) Signature() string {
	buf := make([]byte, 0, 4*len(a.machineOf))
	for _, i := range a.machineOf {
		buf = append(buf, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
	}
	return string(buf)
}

// SortedLoads returns the load vector in non-decreasing order; two
// assignments with equal sorted loads are equivalent for makespan purposes.
func (a *Assignment) SortedLoads() []Cost {
	ls := a.Loads()
	sort.Slice(ls, func(x, y int) bool { return ls[x] < ls[y] })
	return ls
}
