package central

import "hetlb/internal/core"

// machineLoad is one machine of a minLoads heap with its load.
type machineLoad struct {
	load    core.Cost
	machine int
}

// before orders machines by load, then by index: a strict total order on
// distinct machines, so the least-loaded machine is unique whatever the
// heap's layout.
func (x machineLoad) before(y machineLoad) bool {
	if x.load != y.load {
		return x.load < y.load
	}
	return x.machine < y.machine
}

// minLoads is a binary min-heap of machines by load, then index. It holds
// the loads itself, so its machines must be distinct, and a placement on
// its least-loaded machine updates it with raiseMin.
type minLoads []machineLoad

// newMinLoads builds the heap of the given machines at their loads in a.
func newMinLoads(a *core.Assignment, machines []int) minLoads {
	h := make(minLoads, len(machines))
	for k, i := range machines {
		h[k] = machineLoad{a.Load(i), i}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
	return h
}

// raiseMin sets the load of the least-loaded machine, h[0], and restores
// the heap.
func (h minLoads) raiseMin(load core.Cost) {
	h[0].load = load
	h.down(0)
}

// down sifts h[k] towards the leaves until no child comes before it.
func (h minLoads) down(k int) {
	x := h[k]
	for {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[k] = h[c]
		k = c
	}
	h[k] = x
}
