package gossip

import "hetlb/internal/core"

// Stepper is the read surface a balancing engine exposes to observers: the
// sequential Engine here and the sharded engine in internal/shardgossip both
// implement it, so an observer (such as the Figure 4 makespan series and the
// Figure 5 threshold watcher in internal/experiments) works unchanged on
// either. Every method is an O(1) (amortized) query off the engine's
// incremental caches — observers run inside the step path, so anything
// costlier would distort what is being measured.
type Stepper interface {
	// Steps returns the number of pairwise balancing operations executed so
	// far. The sharded engine counts sessions: its unit of progress is the
	// same pairwise exchange, only the schedule differs.
	Steps() int
	// Moves returns the cumulative number of job migrations.
	Moves() int
	// Makespan returns the current Cmax of the schedule.
	Makespan() core.Cost
	// TotalLoad returns the sum of all machine loads.
	TotalLoad() int64
	// Machines returns m, the number of machines balanced.
	Machines() int
	// Exchanges returns the live per-machine participation counts; callers
	// must copy to snapshot.
	Exchanges() []int
}

// Machines implements Stepper.
func (e *Engine) Machines() int { return e.a.Model().NumMachines() }

var _ Stepper = (*Engine)(nil)
