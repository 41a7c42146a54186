// Package span is the causal tracing layer on top of internal/obs: a
// bounded ring of hierarchical span records (run → replication →
// sweep/session → step) plus the point records (drops, retransmits,
// timeouts, crashes, aborts) that attach to them.
//
// Spans are keyed on logical time only — DES virtual time, step counters,
// session sequence numbers — never the wall clock, so a span trace is a pure
// function of the seed and the determinism analyzer stays clean. Causality
// across machines is captured by Lamport clocks: each netsim machine keeps a
// counter that is bumped on every send and merged (max + 1) on every
// receive, and the clock value at a span's close (or at a point record) is
// stored in Span.Clock. Sorting the records of one trace by Clock yields an
// order consistent with the happened-before relation.
//
// The span ring is the repository's one trace model: every runtime records
// into it, WriteJSONL exports it for `hetlb explain`, and WriteChromeTrace
// renders the same records for a trace viewer. Design constraints:
//
//  1. Fixed-size records. A Span holds no pointers, so the ring never
//     allocates after construction and Append is safe on the //hetlb:noalloc
//     step paths.
//  2. Bounded. When the ring is full the oldest records are overwritten and
//     counted in Dropped; both exports carry the total and dropped counts, so
//     truncation is self-describing.
//  3. Deterministic IDs. IDs are allocated sequentially from a per-recorder
//     namespace. The replication harness gives replication i the namespace
//     (i+1)<<32 and merges the per-replication rings in index order after
//     the pool drains, so a merged trace is bit-identical for every worker
//     count.
package span

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// ID identifies a span within one trace. 0 means "no span" (a root record,
// or span tracking disabled).
type ID uint64

// subShift is the namespace shift used by NewSub: the low 32 bits count
// records within a namespace, the high 32 bits name the namespace.
const subShift = 32

// Kind classifies a record.
type Kind uint8

// Record kinds, from coarse to fine. KindFault records are points, not
// intervals: they attach a fault occurrence to the session (Parent) that
// suffered it.
const (
	// KindRun spans a whole engine/simulator run.
	KindRun Kind = iota + 1
	// KindReplication spans one harness replication (A = index).
	KindReplication
	// KindSweep spans one cell of a parameter sweep (Value = cell index).
	KindSweep
	// KindSession spans one pairwise balancing session or steal episode
	// (A = initiator/thief, B = target/victim). In netsim each participating
	// side appends one close record for the same ID, distinguished by Tag;
	// consumers merge by ID.
	KindSession
	// KindStep spans one sequential engine step (A, B = the balanced pair).
	KindStep
	// KindFault is a point record: Parent is the suffering session (0 when
	// none was open), Tag names the fault.
	KindFault
)

// String returns the stable wire name (tests pin these).
func (k Kind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindReplication:
		return "replication"
	case KindSweep:
		return "sweep"
	case KindSession:
		return "session"
	case KindStep:
		return "step"
	case KindFault:
		return "fault"
	}
	return "unknown"
}

// Tag refines a record: the role that closed a session span, or the fault
// type of a KindFault point.
type Tag uint8

// Tags. TagInitiator/TagTarget mark which side of a netsim session appended
// the close record; the rest name fault events.
const (
	TagNone Tag = iota
	TagInitiator
	TagTarget
	// TagDrop: the fault plan dropped a message of this session.
	TagDrop
	// TagRetransmit: a message of this session was re-sent.
	TagRetransmit
	// TagTimeout: a lease expired while this session was open.
	TagTimeout
	// TagCrash: a machine participating in this session crashed.
	TagCrash
	// TagRecover: a machine came back (Parent = 0; machine-level event).
	TagRecover
)

// String returns the stable wire name ("" for TagNone; tests pin these).
func (t Tag) String() string {
	switch t {
	case TagNone:
		return ""
	case TagInitiator:
		return "initiator"
	case TagTarget:
		return "target"
	case TagDrop:
		return "drop"
	case TagRetransmit:
		return "retransmit"
	case TagTimeout:
		return "timeout"
	case TagCrash:
		return "crash"
	case TagRecover:
		return "recover"
	}
	return "unknown"
}

// Flags records how a span ended (bitmask; sessions may carry several, e.g.
// Aborted|Crashed).
type Flags uint8

// Flag bits.
const (
	// FlagCommitted: the session completed its handshake (ownership moved).
	FlagCommitted Flags = 1 << iota
	// FlagAborted: the session ended without a commit.
	FlagAborted
	// FlagRejected: the REQUEST hit a busy target.
	FlagRejected
	// FlagCrashed: a participant crashed while the span was open.
	FlagCrashed
	// FlagFailed: the spanned work returned an error (replications).
	FlagFailed
)

// Span is one record: a closed interval [Start, End] in the emitting
// runtime's logical time unit, or a point (Start == End) for KindFault.
// A and B carry the actor machines (-1 when absent), Value a kind-specific
// payload (jobs moved for sessions/steps, message kind for drops), Clock the
// Lamport clock at the close (0 when the runtime keeps no clocks).
type Span struct {
	ID     ID
	Parent ID
	Kind   Kind
	Tag    Tag
	Flags  Flags
	A, B   int32
	Start  int64
	End    int64
	Clock  uint64
	Value  int64
}

// Recorder is a bounded ring of Span records plus the trace's ID allocator.
// A single short mutex guards both; Append and NextID never allocate.
type Recorder struct {
	mu    sync.Mutex
	buf   []Span
	total uint64 // records ever appended
	next  uint64 // records IDs handed out in this namespace
	base  ID     // namespace ORed into every ID
	root  ID     // parent for the runtimes' top-level spans
	ns    uint64 // sub-recorder namespaces claimed so far (root recorder only)
}

// NewRecorder returns a recorder holding up to capacity records
// (capacity >= 1) in the root namespace.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		panic("span: recorder capacity must be >= 1")
	}
	return &Recorder{buf: make([]Span, capacity)}
}

// NewSub returns a recorder in namespace ns (>= 1): its IDs are
// ns<<32 | seq, disjoint from the root namespace and from every other
// sub-recorder, so rings filled independently (one per harness replication)
// can be merged into one trace without collisions.
func NewSub(capacity int, ns uint64) *Recorder {
	if ns < 1 || ns >= 1<<subShift {
		panic("span: sub-recorder namespace must be in [1, 1<<32)")
	}
	r := NewRecorder(capacity)
	r.base = ID(ns << subShift)
	return r
}

// ClaimNamespaces reserves n consecutive sub-recorder namespaces on this
// recorder and returns the first (namespaces start at 1). The replication
// harness claims one block per Map call, so successive runs merging into
// the same trace — the cells of a sweep — never collide.
func (r *Recorder) ClaimNamespaces(n int) uint64 {
	r.mu.Lock()
	base := r.ns + 1
	r.ns += uint64(n)
	r.mu.Unlock()
	return base
}

// NextID allocates the next span ID. Use it when a span's record is
// appended only at its close but its ID must travel earlier (on messages,
// in fault point records).
func (r *Recorder) NextID() ID {
	r.mu.Lock()
	r.next++
	id := r.base | ID(r.next)
	r.mu.Unlock()
	return id
}

// SetRoot declares the span under which the next runtime run should hang
// (the harness sets it to the replication span). 0 clears it.
func (r *Recorder) SetRoot(id ID) {
	r.mu.Lock()
	r.root = id
	r.mu.Unlock()
}

// Root returns the declared parent for top-level runtime spans (0 if none).
func (r *Recorder) Root() ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

// Append records s, assigning it a fresh ID first when s.ID is 0, and
// returns the recorded ID. When the ring is full the oldest record is
// overwritten.
func (r *Recorder) Append(s Span) ID {
	r.mu.Lock()
	if s.ID == 0 {
		r.next++
		s.ID = r.base | ID(r.next)
	}
	r.buf[r.total%uint64(len(r.buf))] = s
	r.total++
	id := s.ID
	r.mu.Unlock()
	return id
}

// Len returns the number of records currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns the number of records ever appended.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many records were overwritten before being read.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Spans returns the retained records, oldest first.
func (r *Recorder) Spans() []Span {
	spans, _, _ := r.snapshot()
	return spans
}

// Merge appends every retained record of src (oldest first) into r,
// preserving IDs. Use it only with disjoint namespaces (NewSub): the
// harness merges per-replication rings in index order, which keeps the
// merged trace deterministic for any worker count.
func (r *Recorder) Merge(src *Recorder) {
	for _, s := range src.Spans() {
		r.Append(s)
	}
}

// snapshot returns the retained records, oldest first, with the total and
// dropped counts read under the same lock, so an export taken while a run is
// still appending (the debug server) describes one consistent ring state.
func (r *Recorder) snapshot() (spans []Span, total, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total <= n {
		return append([]Span(nil), r.buf[:r.total]...), r.total, 0
	}
	start := r.total % n
	spans = make([]Span, 0, n)
	spans = append(spans, r.buf[start:]...)
	return append(spans, r.buf[:start]...), r.total, r.total - n
}

// WriteJSONL writes a self-describing header line followed by one record
// per line:
//
//	{"meta":"hetlb-spans","version":1,"total":9,"dropped":0,"retained":9}
//	{"id":1,"parent":0,"kind":"session","tag":"target","flags":1,"a":3,"b":7,"start":120,"end":190,"clock":42,"v":5}
//
// The header's dropped count makes truncated traces self-describing; flags
// is the raw Flags bitmask.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	spans, total, dropped := r.snapshot()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"meta\":\"hetlb-spans\",\"version\":1,\"total\":%d,\"dropped\":%d,\"retained\":%d}\n",
		total, dropped, len(spans))
	for _, s := range spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"kind\":%q,\"tag\":%q,\"flags\":%d,\"a\":%d,\"b\":%d,\"start\":%d,\"end\":%d,\"clock\":%d,\"v\":%d}\n",
			uint64(s.ID), uint64(s.Parent), s.Kind.String(), s.Tag.String(), s.Flags, s.A, s.B, s.Start, s.End, s.Clock, s.Value)
	}
	return bw.Flush()
}

// WriteChromeTrace renders the retained records in the Chrome trace_event
// JSON format (load it in chrome://tracing or Perfetto), one event per
// record in ring order, so the event count equals the JSONL record count.
// An interval record becomes a complete event ("ph":"X") with ts = Start and
// dur = End − Start; a KindFault point becomes a thread-scoped instant. The
// logical time unit is shown as microseconds. Every event sits on pid 0 with
// tid = actor A (0 when A is negative); the kind is the name, the tag the
// category, and the remaining fields go in args. otherData carries the
// ring's total and dropped counts, as the JSONL header does.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans, total, dropped := r.snapshot()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"otherData\":{\"meta\":\"hetlb-spans\",\"version\":1,\"total\":%d,\"dropped\":%d,\"retained\":%d},\"traceEvents\":[\n",
		total, dropped, len(spans))
	for i, s := range spans {
		tid := s.A
		if tid < 0 {
			tid = 0
		}
		fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,", s.Kind.String(), s.Tag.String())
		if s.Kind == KindFault {
			fmt.Fprintf(bw, "\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,", tid, s.Start)
		} else {
			fmt.Fprintf(bw, "\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,", tid, s.Start, s.End-s.Start)
		}
		fmt.Fprintf(bw, "\"args\":{\"id\":%d,\"parent\":%d,\"flags\":%d,\"a\":%d,\"b\":%d,\"clock\":%d,\"v\":%d}}",
			uint64(s.ID), uint64(s.Parent), s.Flags, s.A, s.B, s.Clock, s.Value)
		if i < len(spans)-1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}
