package central

import (
	"fmt"

	"hetlb/internal/core"
)

// OnlineLS is the submission-time scheduler the paper's related work
// describes: each arriving job goes to the least loaded machine, maintained
// in a priority queue so each placement costs O(log m). On identical
// machines every intermediate solution is a 2-approximation (Graham), but
// the structure is inherently centralized — which is the paper's argument
// for decentralized alternatives.
type OnlineLS struct {
	model      core.CostModel
	assignment *core.Assignment
	h          minLoads
}

// NewOnlineLS builds an empty online scheduler over the model.
func NewOnlineLS(m core.CostModel) *OnlineLS {
	machines := make([]int, m.NumMachines())
	for i := range machines {
		machines[i] = i
	}
	a := core.NewAssignment(m)
	return &OnlineLS{model: m, assignment: a, h: newMinLoads(a, machines)}
}

// Add places job j on the currently least loaded machine and returns that
// machine. O(log m).
func (o *OnlineLS) Add(job int) int {
	if o.assignment.MachineOf(job) != -1 {
		panic(fmt.Sprintf("central: job %d submitted twice", job))
	}
	i := o.h[0].machine
	o.assignment.Assign(job, i)
	o.h.raiseMin(o.assignment.Load(i))
	return i
}

// Assignment exposes the live assignment (do not mutate machines placed so
// far except through Add).
func (o *OnlineLS) Assignment() *core.Assignment { return o.assignment }

// Makespan returns the current Cmax.
func (o *OnlineLS) Makespan() core.Cost { return o.assignment.Makespan() }
