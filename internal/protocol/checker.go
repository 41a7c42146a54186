package protocol

import (
	"hetlb/internal/core"
	"hetlb/internal/pairwise"
)

// Checker proves or refutes that a placement is stable under a protocol: no
// pair of up machines whose Step would move a job. It scans the pairs in the
// order (0,1), (0,2), …, (0,m−1), (1,2), … and returns the first that
// fails, so its answer is always that of a scan restarting at (0,1).
//
// It does not restart, though. A step reads only (i, j, the two job lists)
// (the Protocol contract), so a pair that one check verified stays verified
// until one of its two machines changes. The checker keeps one "changed
// since the last check" bit per machine, set through Mark, and a frontier:
// the scan index of the last check's first failing pair, or the pair count
// after a check that succeeded. A check skips every pair before the frontier
// whose two machines are both unchanged, steps the others until one fails,
// then stores the new frontier and clears the bits. Pairs with a down
// machine are skipped too; they were never verified, which is why a machine
// that goes down or comes back must be marked.
//
// The skip is only sound if the caller marks every machine whose job list
// changed since the last check. The engines mark the two machines of every
// step or session that moved a job, and the sharded engine also marks every
// machine a fault transition touches. The checker therefore relies on the
// engines' own assumption (see gossip.Engine.Makespan): only their steps
// mutate the placement. A Checker is not safe for concurrent use, except
// that Mark may run concurrently for distinct machines between two checks.
type Checker struct {
	proto    Protocol
	scratch  pairwise.Scratch
	changed  []bool
	frontier int

	// lists and backing hold the job lists CheckAssignment builds, reused
	// from one check to the next.
	lists   [][]int
	backing []int
}

// NewChecker returns a checker for m machines that verifies p's pair step,
// Step, the step every engine runs. Its first check scans every pair.
func NewChecker(m int, p Protocol) *Checker {
	return &Checker{proto: p, changed: make([]bool, m)}
}

// Mark records that machine i changed since the last check: its job list, or
// whether it is down.
//
//hetlb:noalloc
func (c *Checker) Mark(i int) { c.changed[i] = true }

// Check returns the first pair (i, j), i < j, in scan order whose step would
// move a job, or (-1, -1) if the placement is stable. jobs[i] is machine i's
// job list, sorted by entry as Step takes it. Pairs with a machine marked in
// down are skipped; down may be nil.
//
//hetlb:noalloc
func (c *Checker) Check(jobs [][]int, down []bool) (int, int) {
	m := len(jobs)
	fi, fj := -1, -1
	k := 0 // the scan index of pair (i, j)
scan:
	for i := 0; i < m; i++ {
		if down != nil && down[i] {
			k += m - 1 - i
			continue
		}
		for j := i + 1; j < m; j, k = j+1, k+1 {
			if down != nil && down[j] {
				continue
			}
			if k < c.frontier && !c.changed[i] && !c.changed[j] {
				continue
			}
			Step(c.proto, &c.scratch, i, j, jobs[i], jobs[j])
			if len(c.scratch.Diff1)+len(c.scratch.Diff2) != 0 {
				fi, fj = i, j
				break scan
			}
		}
	}
	c.frontier = k
	clear(c.changed)
	return fi, fj
}

// CheckAssignment is Check on the placement of a with every machine up. The
// job lists come from one counting pass over the assignment, O(n+m)
// (core.Assignment.FillOrderedLists), into buffers the checker keeps, in
// the protocol's ListOrder; unassigned jobs are on no list.
func (c *Checker) CheckAssignment(a *core.Assignment) (int, int) {
	if c.lists == nil {
		c.lists = make([][]int, len(c.changed))
		c.backing = make([]int, a.Model().NumJobs())
	}
	a.FillOrderedLists(c.lists, c.backing, c.proto.ListOrder())
	return c.Check(c.lists, nil)
}
