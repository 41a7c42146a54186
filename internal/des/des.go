// Package des is a minimal deterministic discrete-event simulation kernel:
// a clock plus a priority queue of timestamped callbacks. The work-stealing
// simulator (internal/worksteal) is built on it.
//
// Determinism: events at the same timestamp are ordered first by an explicit
// phase (so that, e.g., all job completions at time t are processed before
// steal resolutions at time t, which in turn precede job starts at time t),
// then by insertion sequence. Reruns with the same inputs produce identical
// schedules.
package des

// Phase orders events within a single timestamp.
type Phase uint8

// Phases used by the schedulers built on this kernel. Lower runs first.
const (
	// PhaseComplete is for "work finished" events.
	PhaseComplete Phase = iota
	// PhaseTransfer is for rebalancing/steal resolutions.
	PhaseTransfer
	// PhaseStart is for "begin next work item" events.
	PhaseStart
)

type event struct {
	time  int64
	phase Phase
	seq   uint64
	fn    func()
}

// before reports whether e runs before o: at an earlier time, then in an
// earlier phase, then scheduled earlier. No two events share a seq, so the
// order is total and the pop sequence depends on the scheduled events
// alone, not on the heap's layout.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.phase != o.phase {
		return e.phase < o.phase
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events in before order, kept by hand
// rather than through container/heap, whose any-typed Push and Pop would
// box every event twice.
type eventHeap []event

// push adds ev and sifts it up to its place.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for k := len(q) - 1; k > 0; {
		parent := (k - 1) / 2
		if !q[k].before(&q[parent]) {
			break
		}
		q[k], q[parent] = q[parent], q[k]
		k = parent
	}
	*h = q
}

// pop removes and returns the first event. The last event takes the root
// and sifts down; its old slot is cleared so that the backing array keeps
// no closure alive.
func (h *eventHeap) pop() event {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q[last] = event{}
	q = q[:last]
	for k := 0; ; {
		c := 2*k + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[k]) {
			break
		}
		q[k], q[c] = q[c], q[k]
		k = c
	}
	*h = q
	return top
}

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now    int64
	events eventHeap
	seq    uint64
	count  uint64 // processed events
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() int64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.count }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.events) }

// At schedules fn at absolute time t with the given phase. Scheduling in the
// past panics: it would silently corrupt causality.
func (s *Simulator) At(t int64, phase Phase, fn func()) {
	if t < s.now {
		panic("des: event scheduled in the past")
	}
	s.events.push(event{time: t, phase: phase, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn d time units from now.
func (s *Simulator) After(d int64, phase Phase, fn func()) {
	if d < 0 {
		panic("des: negative delay")
	}
	s.At(s.now+d, phase, fn)
}

// Step executes the next event; it reports false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := s.events.pop()
	s.now = ev.time
	s.count++
	ev.fn()
	return true
}

// Run executes events until the queue is empty or maxEvents have been
// processed in this call; it reports whether the queue drained.
func (s *Simulator) Run(maxEvents uint64) bool {
	for n := uint64(0); n < maxEvents; n++ {
		if !s.Step() {
			return true
		}
	}
	return len(s.events) == 0
}
