package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// EventType enumerates the structured events the runtimes emit. The set is
// deliberately closed and small: every event is a fixed-size value, so the
// tracer ring holds no pointers and Emit never allocates.
type EventType uint8

// Event types. A and B carry the actors (machine indices, -1 when absent);
// Value carries the payload described per type.
const (
	// EvPairSelected: a pairwise balancing step/session between machines A
	// and B; Value = jobs migrated by the exchange.
	EvPairSelected EventType = iota + 1
	// EvJobsMigrated: Value jobs changed machine in one operation (A → B
	// when directional, A/B the pair otherwise).
	EvJobsMigrated
	// EvMessageSent: machine A sent a message to machine B; Value = message
	// kind (runtime-defined small enum).
	EvMessageSent
	// EvMessageRecv: machine B received a message from machine A; Value =
	// message kind.
	EvMessageRecv
	// EvStealAttempt: thief A probed victim B.
	EvStealAttempt
	// EvStealSuccess: thief A stole Value jobs from victim B.
	EvStealSuccess
	// EvMakespanSample: Value = Cmax observed at Time.
	EvMakespanSample
	// EvSessionStart: machine A opened a balancing session with B.
	EvSessionStart
	// EvSessionEnd: the session between A and B completed; Value = duration
	// in the runtime's time unit.
	EvSessionEnd
	// EvReplicationStart: the harness dispatched replication A of an
	// experiment (B = -1).
	EvReplicationStart
	// EvReplicationEnd: replication A finished; Value = wall time in
	// nanoseconds (negative when the replication failed).
	EvReplicationEnd
	// EvMessageDropped: the fault plan dropped a message from A to B;
	// Value = message kind.
	EvMessageDropped
	// EvMachineCrash: machine A crashed (B = -1); Value = jobs it held at
	// the instant of the crash (lost or frozen, per the fault plan).
	EvMachineCrash
	// EvMachineRecover: machine A recovered (B = -1); Value = jobs
	// re-hosted on it.
	EvMachineRecover
)

// String returns the stable wire name of the event type (used by the JSONL
// and Chrome exports; tests pin these).
func (t EventType) String() string {
	switch t {
	case EvPairSelected:
		return "pair-selected"
	case EvJobsMigrated:
		return "jobs-migrated"
	case EvMessageSent:
		return "message-sent"
	case EvMessageRecv:
		return "message-recv"
	case EvStealAttempt:
		return "steal-attempt"
	case EvStealSuccess:
		return "steal-success"
	case EvMakespanSample:
		return "makespan-sample"
	case EvSessionStart:
		return "session-start"
	case EvSessionEnd:
		return "session-end"
	case EvReplicationStart:
		return "replication-start"
	case EvReplicationEnd:
		return "replication-end"
	case EvMessageDropped:
		return "message-dropped"
	case EvMachineCrash:
		return "machine-crash"
	case EvMachineRecover:
		return "machine-recover"
	}
	return "unknown"
}

// Event is one tracer record. Time is in the emitting runtime's unit
// (gossip: step index; netsim/worksteal: virtual time) — timelines from one
// runtime are internally consistent, which is what trace viewers need.
type Event struct {
	Time  int64
	Type  EventType
	A, B  int32
	Value int64
}

// Tracer is a bounded ring buffer of events. When full, the oldest events
// are overwritten; Dropped reports how many were lost. A single mutex
// guards the ring: the critical section is a slice store and two integer
// updates, which is cheap enough for every runtime here.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever emitted
}

// NewTracer returns a tracer holding up to capacity events (capacity >= 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		panic("obs: tracer capacity must be >= 1")
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit records one event, overwriting the oldest if the ring is full.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	t.buf[t.total%uint64(len(t.buf))] = e
	t.total++
	t.mu.Unlock()
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten before being read.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if t.total <= n {
		return append([]Event(nil), t.buf[:t.total]...)
	}
	start := t.total % n
	out := make([]Event, 0, n)
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// Reset empties the ring and zeroes the emitted/dropped accounting.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total = 0
}

// InstrumentTracer exposes the tracer's ring accounting on a registry as
// pull-style counters, so a scrape (or the debug server) can see a trace
// overflowing while the run is still going:
//
//	trace_ring_events_total   events ever emitted
//	trace_ring_dropped_total  events overwritten before export
func InstrumentTracer(r *Registry, t *Tracer) {
	r.CounterFunc("trace_ring_events_total", "events ever emitted into the trace ring", func() int64 { return int64(t.Total()) })
	r.CounterFunc("trace_ring_dropped_total", "trace ring events overwritten before export", func() int64 { return int64(t.Dropped()) })
}

// WriteJSONL writes a self-describing header line followed by the retained
// events, one JSON object per line:
//
//	{"meta":"hetlb-events","version":1,"total":2,"dropped":0,"retained":2}
//	{"t":12,"type":"pair-selected","a":3,"b":7,"v":2}
//
// The header carries the ring accounting, so a truncated trace declares how
// many events it lost.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"meta\":\"hetlb-events\",\"version\":1,\"total\":%d,\"dropped\":%d,\"retained\":%d}\n",
		t.Total(), t.Dropped(), len(events))
	for _, e := range events {
		fmt.Fprintf(bw, "{\"t\":%d,\"type\":%q,\"a\":%d,\"b\":%d,\"v\":%d}\n",
			e.Time, e.Type.String(), e.A, e.B, e.Value)
	}
	return bw.Flush()
}

// WriteChromeTrace writes the retained events in the Chrome trace_event
// JSON format (load in chrome://tracing or Perfetto). Every event becomes a
// thread-scoped instant on pid 0 with tid = actor A (or 0 when absent), ts =
// the event's Time interpreted as microseconds, and the peer/payload in
// args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	events := t.Events()
	for i, e := range events {
		tid := e.A
		if tid < 0 {
			tid = 0
		}
		fmt.Fprintf(bw,
			"{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"a\":%d,\"b\":%d,\"value\":%d}}",
			e.Type.String(), tid, e.Time, e.A, e.B, e.Value)
		if i < len(events)-1 {
			bw.WriteString(",")
		}
		bw.WriteString("\n")
	}
	bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}
