package hetlb

import (
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
)

// This file exposes the observability layer. A MetricsRegistry collects
// named counters, gauges and histograms from every runtime that is handed
// one (via RunOptions.Metrics, MessagePassingOptions.Metrics or
// WorkStealingOptions.Metrics); a SpanTrace records what happened, session
// by session, and a Timeline how the schedule converged. All three are
// concurrency-safe and allocation-free on the record path, so attaching them
// does not perturb what is being measured.

// MetricsRegistry holds named metric instruments. Export its contents with
// WritePrometheus (text exposition format) or WriteJSON (deterministic
// snapshot); registration is idempotent, so one registry can accumulate
// across repeated runs.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SpanTrace is a bounded ring of causal span records: a hierarchy of
// run → replication → sweep/session → step intervals plus the fault point
// records (drops, retransmits, timeouts, crashes) parented to the session
// that suffered them. Spans are keyed on logical time only (step counters,
// virtual time, session sequence numbers — never the wall clock), and the
// message-passing runtime stamps each record with a Lamport clock, so a
// span trace is a pure function of the seed: bit-identical across worker
// counts and suitable for golden tests. Export with WriteJSONL, or with
// WriteChromeTrace to load the same records in a trace viewer such as
// Perfetto; analyze with `hetlb explain`.
type SpanTrace = span.Recorder

// SpanRecord is one record of a SpanTrace: a closed interval [Start, End]
// in the emitting runtime's logical time unit, or a point (fault) record
// attached to its parent session.
type SpanRecord = span.Span

// SpanID identifies a span within one trace; 0 means "no span".
type SpanID = span.ID

// NewSpanTrace returns a span ring holding up to capacity records. When
// full it overwrites the oldest records and counts them in Dropped; the
// JSONL header makes truncation self-describing.
func NewSpanTrace(capacity int) *SpanTrace { return span.NewRecorder(capacity) }

// Timeline is a bounded per-step convergence recorder: makespan, imbalance
// against the ideal uniform load, cumulative migrations and messages, on
// the runtime's logical clock. When full it halves its resolution by
// deterministic power-of-two downsampling instead of dropping the tail, so
// the retained shape always covers the whole run and is a pure function of
// what was recorded. Export with WriteCSV or WriteJSON; analyze with
// `hetlb explain`.
type Timeline = timeline.Recorder

// TimelinePoint is one convergence sample of a Timeline.
type TimelinePoint = timeline.Point

// NewTimeline returns a timeline retaining up to capacity points
// (capacity >= 2).
func NewTimeline(capacity int) *Timeline { return timeline.NewRecorder(capacity) }
