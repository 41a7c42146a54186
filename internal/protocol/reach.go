package protocol

import "hetlb/internal/core"

// Reachability describes the set of schedules reachable from an initial
// assignment under every possible sequence of pairwise balancing steps.
// It is the object used to exhibit Proposition 8 (DLB2C may never converge):
// if the reachable set contains no stable schedule, then any infinite run of
// the protocol changes state infinitely often and is trapped in a cycle of
// the (finite) reachable set.
type Reachability struct {
	// States is the number of distinct schedules reached.
	States int
	// StableStates is the number of reachable schedules that are fixed
	// points of the protocol.
	StableStates int
	// Truncated is true if exploration stopped at the state cap before
	// exhausting the reachable set; the other fields are then lower
	// bounds.
	Truncated bool
	// Representatives holds one assignment per reachable state, in BFS
	// order from the initial state (capped at the exploration limit).
	Representatives []*core.Assignment
	// MinMakespan and MaxMakespan are the extremes over reached states.
	MinMakespan, MaxMakespan core.Cost
}

// Explore runs a breadth-first search over schedules: from each state, every
// machine pair is balanced on a clone (Balance) and new states are enqueued.
// maxStates caps the exploration.
func Explore(p Protocol, start *core.Assignment, maxStates int) *Reachability {
	m := start.Model().NumMachines()
	seen := map[string]bool{start.Signature(): true}
	queue := []*core.Assignment{start.Clone()}
	res := &Reachability{
		MinMakespan: start.Makespan(),
		MaxMakespan: start.Makespan(),
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		res.States++
		res.Representatives = append(res.Representatives, cur)
		if cm := cur.Makespan(); cm < res.MinMakespan {
			res.MinMakespan = cm
		} else if cm > res.MaxMakespan {
			res.MaxMakespan = cm
		}
		stable := true
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				next := cur.Clone()
				Balance(p, next, i, j)
				if next.Equal(cur) {
					continue
				}
				stable = false
				sig := next.Signature()
				if seen[sig] {
					continue
				}
				if len(seen) >= maxStates {
					res.Truncated = true
					continue
				}
				seen[sig] = true
				queue = append(queue, next)
			}
		}
		if stable {
			res.StableStates++
		}
	}
	return res
}

// ProvesNonConvergence reports whether the exploration demonstrates
// Proposition 8: the reachable set was fully enumerated and contains no
// stable schedule, so the protocol can never converge from the initial
// state.
func (r *Reachability) ProvesNonConvergence() bool {
	return !r.Truncated && r.StableStates == 0 && r.States > 0
}

// FindCycle extracts an explicit cycle of schedules: a sequence
// S_0 → S_1 → ... → S_k = S_0 of distinct states (k ≥ 2) where each arrow is
// one pairwise balancing step. It returns nil if none exists within the
// explored states (e.g. when a stable state is reachable from everywhere).
func FindCycle(p Protocol, start *core.Assignment, maxStates int) []*core.Assignment {
	r := Explore(p, start, maxStates)
	m := start.Model().NumMachines()
	// Index states by signature.
	index := make(map[string]int, len(r.Representatives))
	for k, s := range r.Representatives {
		index[s.Signature()] = k
	}
	// Build the successor lists (state-changing steps only).
	adj := make([][]int, len(r.Representatives))
	for k, s := range r.Representatives {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				next := s.Clone()
				Balance(p, next, i, j)
				if next.Equal(s) {
					continue
				}
				if t, ok := index[next.Signature()]; ok {
					adj[k] = append(adj[k], t)
				}
			}
		}
	}
	// DFS for a back edge; reconstruct the cycle from the DFS stack.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(adj))
	var stack []int
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = grey
		stack = append(stack, v)
		for _, w := range adj[v] {
			if color[w] == grey {
				// Found a cycle: the suffix of the stack from w.
				for k := len(stack) - 1; k >= 0; k-- {
					if stack[k] == w {
						cycle = append(cycle, stack[k:]...)
						cycle = append(cycle, w)
						return true
					}
				}
			}
			if color[w] == white && dfs(w) {
				return true
			}
		}
		color[v] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for v := range adj {
		if color[v] == white && dfs(v) {
			break
		}
	}
	if cycle == nil {
		return nil
	}
	out := make([]*core.Assignment, len(cycle))
	for k, v := range cycle {
		out[k] = r.Representatives[v]
	}
	return out
}
