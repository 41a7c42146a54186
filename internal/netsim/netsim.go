// Package netsim runs the decentralized protocols over an explicitly
// simulated network: machines are independent state machines that
// communicate only by timestamped point-to-point messages with latency —
// no shared memory of any kind, which is the paper's actual system model
// ("the machines do not share memory").
//
// A balancing session is a three-message handshake:
//
//	initiator            target
//	   | --- REQUEST ------> |   target idle? escrow jobs + reply
//	   | <----- OFFER ------ |   (carries the target's job list)
//	   | --- COMMIT -------> |   (carries the jobs now owned by target)
//	   | <----- REJECT ----- |   (instead of OFFER when target is busy)
//
// The initiator locks itself while a session is in flight, runs the
// protocol's pair step (protocol.Step) between OFFER and COMMIT, and both
// sides unlock on completion. Concurrent sessions on disjoint pairs proceed in
// parallel in virtual time; a busy target rejects, and the initiator backs
// off and retries with a fresh random peer. This demonstrates that
// DLB2C/OJTB/MJTB need nothing beyond pairwise messages — and lets the
// experiments measure how network latency stretches convergence.
//
// # Fault tolerance
//
// The network may misbehave when a fault plan (internal/faults) is
// attached: messages can be dropped, duplicated or jittered, and machines
// can crash and recover. The handshake is hardened so that no single lost
// or duplicated message can wedge a machine or lose/duplicate a job:
//
//   - Every session carries an id (initiator, per-initiator sequence
//     number). The sequence counter survives crashes ("stable storage"),
//     so ids are never reused and stale messages are recognizable.
//   - The target escrows its job list when it accepts a REQUEST. The pool
//     changes ownership exactly once, when the initiator processes the
//     OFFER: from then on the target's half lives in the initiator's
//     per-target done record (an outbox) until the COMMIT is applied.
//     Retransmitted OFFERs for a committed session are answered by
//     retransmitting the COMMIT from the done record, which makes COMMIT
//     delivery idempotent; OFFERs for a session the initiator no longer
//     knows are answered with ABORT, which restores the target's escrow.
//   - Both roles carry a timeout lease with capped exponential backoff.
//     The initiator retransmits the REQUEST a bounded number of times and
//     then gives up (safe: the pool never moved). The target re-OFFERs
//     until the session resolves (the pool is in limbo, so it must not
//     guess); with loss probability < 1 this terminates with probability 1.
//   - A crash voids the machine's in-flight messages (epoch stamp), drops
//     its open sessions and either records its jobs as lost or freezes
//     them for re-hosting on recovery, per the plan. Peers discover the
//     death through the same timeout path: the crash deterministically
//     records, per open session, whether the survivor must restore its
//     escrow, drop it, or reclaim an unapplied outbox, and the survivor's
//     next lease firing (or balancing attempt) applies that resolution.
//   - After the drain, ValidateConservation checks the invariant "every
//     job is placed exactly once among machine job lists (live or frozen
//     on a crashed machine), or explicitly recorded in the lost ledger
//     with its crash".
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hetlb/internal/core"
	"hetlb/internal/des"
	"hetlb/internal/faults"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
)

// Message kinds, used as the CounterVec index and the drop span payload.
const (
	MsgRequest = iota
	MsgOffer
	MsgCommit
	MsgReject
	MsgAbort
)

// MsgKinds are the wire names of the message kinds, indexed by the Msg*
// constants.
var MsgKinds = []string{"request", "offer", "commit", "reject", "abort"}

// faultsStream keys the fault plan's RNG substream off Config.Seed, so the
// schedule is independent of the per-machine attempt streams.
const faultsStream = 0xFA17D5

// Metrics bundles the runtime's obs instruments.
type Metrics struct {
	// Sent counts message transmissions by kind (request/offer/commit/
	// reject/abort), including retransmissions; Delivered counts the copies
	// actually handed to a live receiver (so duplicates count twice, and
	// dropped or crash-voided messages not at all).
	Sent, Delivered *obs.CounterVec
	// Sessions counts completed handshakes; Rejections REQUESTs that hit a
	// busy target.
	Sessions, Rejections *obs.Counter
	// Dropped counts messages lost by the fault plan; CrashDropped copies
	// voided because the sender crashed in flight or the receiver was down;
	// Duplicated extra copies injected by the plan; DupSuppressed received
	// messages ignored as stale or duplicate by the session-id logic.
	Dropped, CrashDropped, Duplicated, DupSuppressed *obs.Counter
	// Timeouts counts lease expiries on still-open sessions;
	// Retransmissions the re-sent messages they (or duplicate receipts)
	// triggered; Aborts sessions that ended without a commit.
	Timeouts, Retransmissions, Aborts *obs.Counter
	// Crashes and Recoveries count machine failures and returns; JobsLost
	// jobs recorded in the lost ledger at a crash; JobsReclaimed jobs an
	// initiator took back from an outbox whose target died before applying
	// the commit.
	Crashes, Recoveries, JobsLost, JobsReclaimed *obs.Counter
	// Latency observes each delivered copy's simulated one-way delay
	// (base latency plus jitter); Handshake the virtual time from REQUEST
	// send to COMMIT delivery of completed sessions (both in virtual time
	// units); SessionRetries the REQUEST retransmissions per completed
	// session.
	Latency, Handshake, SessionRetries *obs.Histogram
	// Makespan tracks the last sampled Cmax.
	Makespan *obs.Gauge
}

// NewMetrics registers the runtime's instruments (idempotent on the same
// registry).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Sent:            r.CounterVec("netsim_messages_sent_total", "message transmissions by kind (retransmissions included)", "kind", MsgKinds),
		Delivered:       r.CounterVec("netsim_messages_delivered_total", "message copies delivered to a live receiver by kind", "kind", MsgKinds),
		Sessions:        r.Counter("netsim_sessions_total", "completed balancing handshakes"),
		Rejections:      r.Counter("netsim_rejections_total", "REQUESTs rejected by a busy target"),
		Dropped:         r.Counter("netsim_messages_dropped_total", "messages lost by the fault plan"),
		CrashDropped:    r.Counter("netsim_messages_crash_voided_total", "message copies voided by a sender crash or down receiver"),
		Duplicated:      r.Counter("netsim_messages_duplicated_total", "extra message copies injected by the fault plan"),
		DupSuppressed:   r.Counter("netsim_duplicates_suppressed_total", "received messages ignored as stale or duplicate"),
		Timeouts:        r.Counter("netsim_timeouts_total", "lease expiries on still-open sessions"),
		Retransmissions: r.Counter("netsim_retransmissions_total", "messages re-sent after a timeout or duplicate receipt"),
		Aborts:          r.Counter("netsim_session_aborts_total", "sessions ended without a commit"),
		Crashes:         r.Counter("netsim_crashes_total", "machine crashes"),
		Recoveries:      r.Counter("netsim_recoveries_total", "machine recoveries"),
		JobsLost:        r.Counter("netsim_jobs_lost_total", "jobs recorded as lost at a crash"),
		JobsReclaimed:   r.Counter("netsim_jobs_reclaimed_total", "outbox jobs reclaimed from sessions killed by a target crash"),
		Latency:         r.Histogram("netsim_message_latency_vt", "simulated one-way delay of delivered copies in virtual time", obs.Pow2Bounds(16)),
		Handshake:       r.Histogram("netsim_handshake_vt", "virtual time from REQUEST send to COMMIT delivery", obs.Pow2Bounds(20)),
		SessionRetries:  r.Histogram("netsim_session_retries", "REQUEST retransmissions per completed session", obs.Pow2Bounds(8)),
		Makespan:        r.Gauge("netsim_makespan", "last sampled Cmax"),
	}
}

// Config parameterizes a run.
type Config struct {
	// Seed drives peer selection and period jitter; the fault plan derives
	// its own substream from it (keyed, so the schedule is independent of
	// event interleaving).
	Seed uint64
	// Latency is the one-way message delay in virtual time units
	// (must be ≥ 1: a network takes time).
	Latency int64
	// Period is the mean time between balancing attempts per machine;
	// actual gaps are Period ± up to 50% jitter to avoid lockstep.
	Period int64
	// Horizon stops the simulation at this virtual time.
	Horizon int64
	// Faults, when non-nil, attaches a fault plan (message drop/duplication/
	// jitter and machine crashes). A nil Faults — or a zero Config — runs
	// the perfect network and reproduces the historical behavior exactly.
	Faults *faults.Config
	// RTO is the initial retransmission timeout; 0 defaults to
	// 3·(Latency+JitterMax)+1, which exceeds any fault-free round trip so
	// the perfect-network path never retransmits.
	RTO int64
	// RTOCap bounds the exponential backoff; 0 defaults to 16·RTO.
	RTOCap int64
	// MaxRequestRetries bounds REQUEST retransmissions before the initiator
	// gives up (safe: no ownership has moved yet); 0 defaults to 6.
	MaxRequestRetries int
	// MaxEvents, when > 0, is a watchdog: Run panics if the drain processes
	// more events than this, turning a livelocked handshake into a loud
	// failure instead of a hung test.
	MaxEvents uint64
	// Metrics, when non-nil, receives message/handshake/fault
	// instrumentation.
	Metrics *Metrics
	// Spans, when non-nil, receives the causal span trace: one KindRun span
	// per Run, one KindSession span per handshake (each side appends a close
	// record for the same ID, distinguished by Tag; Clock carries the
	// closer's Lamport time), and KindFault point records — drops,
	// retransmissions, timeouts, crashes, recoveries — parented to the
	// session they degraded (or to the run span for machine-level events).
	// All times are virtual; the trace is a pure function of Config.
	Spans *span.Recorder
	// Timeline, when non-nil, receives one convergence point per sampling
	// period: Time = virtual time, Cmax, Imbalance = Cmax − mean load over
	// all machines, cumulative Moves (jobs that changed machines in
	// committed sessions) and Messages (transmissions).
	Timeline *timeline.Recorder
}

// LostJob is one entry of the lost-jobs ledger: job was on machine Machine
// when it crashed at Time under a plan that loses jobs.
type LostJob struct {
	Job, Machine int
	Time         int64
}

// Stats summarizes a run. For a fixed Config (seed and fault plan
// included) the struct is bit-identical across runs and across harness
// worker counts.
type Stats struct {
	// Sessions counts completed balancing handshakes; Rejections counts
	// REQUESTs a busy target answered with REJECT (counted at the send).
	Sessions, Rejections int
	// Sent counts message transmissions (retransmissions included);
	// Delivered counts copies handed to a live receiver. On a perfect
	// network Sent == Delivered.
	Sent, Delivered int
	// Dropped counts messages lost by the fault plan; CrashDropped copies
	// voided by a sender crash or a down receiver; Duplicated extra copies
	// injected; DupSuppressed received messages ignored as stale/duplicate.
	Dropped, CrashDropped, Duplicated, DupSuppressed int
	// Timeouts counts lease expiries on open sessions; Retransmissions
	// re-sent messages; Aborts sessions ended without a commit.
	Timeouts, Retransmissions, Aborts int
	// Crashes and Recoveries count machine failures and returns.
	Crashes, Recoveries int
	// JobsLost is the lost-ledger size; JobsReclaimed counts outbox jobs
	// taken back after a target died before applying a commit.
	JobsLost, JobsReclaimed int
	// JobsMoved counts jobs that switched machines in committed sessions
	// (each migration counts once, the paper's "amount of tasks exchanged").
	JobsMoved int
	// Lost is the ledger of jobs destroyed by crashes, in (time, job) order.
	Lost []LostJob
	// FinalMakespan is Cmax of the final placement (frozen jobs on crashed
	// machines included; lost jobs excluded).
	FinalMakespan core.Cost
	// MakespanAt samples (time, Cmax) once per Period.
	Times     []int64
	Makespans []core.Cost
}

// doneRec remembers, per target, the last session this machine committed
// with it: the session id for duplicate handling and the target's half of
// the split, which acts as an outbox until the COMMIT is known applied.
type doneRec struct {
	seq uint64
	toT []int
	// span is the session's span ID, kept so a COMMIT retransmitted from
	// the outbox attributes its faults to the original session.
	span span.ID
}

type machineState struct {
	jobs []int // sorted; empty while escrowed to an open target session
	up   bool
	// epoch bumps on every crash and every recovery: in-flight messages and
	// pending attempt chains of an old incarnation check it and die.
	epoch uint32
	// clock is the machine's Lamport clock: bumped on every send, merged
	// (max + 1) on every delivery. Session close records carry it, so the
	// span trace totally orders each machine's view of causality.
	clock uint64
	// retained freezes the machine's jobs across a crash when the plan
	// re-hosts instead of losing them.
	retained []int

	// initiator-side session (0 = none)
	initSeq     uint64
	initPeer    int
	initStart   int64
	initRetries int
	initSpan    span.ID

	// target-side session (0 = none)
	tgtSeq   uint64
	tgtPeer  int
	tgtStart int64
	tgtSpan  span.ID
	escrow   []int

	// "stable storage": survives crashes so session ids are never reused
	// and finished sessions stay recognizable.
	seq     uint64
	lastSeq map[int]uint64 // per initiator: highest session seq ever accepted
	done    map[int]doneRec
}

// resKind is a crash resolution: when a machine dies, the fate of each of
// its open sessions' job pools is decided deterministically at the crash
// and recorded for the surviving peer to apply on its timeout path.
type resKind uint8

const (
	// resAbortInitiator frees an initiator whose target died holding the
	// escrowed pool (the pool died with it, or moved to its ledger).
	resAbortInitiator resKind = iota + 1
	// resReclaimOutbox tells an initiator its committed session will never
	// be applied: take the outbox jobs back.
	resReclaimOutbox
	// resRestoreEscrow tells a target its initiator died (or gave up)
	// without taking the pool: restore the escrow.
	resRestoreEscrow
	// resDropEscrow tells a target its initiator committed before dying:
	// the escrow is a stale duplicate of jobs now owned elsewhere.
	resDropEscrow
)

type resKey struct {
	init int
	seq  uint64
}

// Simulator executes the handshake protocol in virtual time.
type Simulator struct {
	model         core.CostModel
	proto         protocol.Protocol
	cfg           Config
	sim           *des.Simulator
	gens          []*rng.RNG
	ms            []machineState
	plan          *faults.Plan
	rto           int64
	rtoCap        int64
	maxReqRetries int
	deadRes       map[resKey]resKind
	spans         *span.Recorder
	tl            *timeline.Recorder
	runSpan       span.ID
	stats         Stats
	// scratch backs the pair steps; a session's two sides are copied out
	// of it before they become job lists.
	scratch pairwise.Scratch
}

// New validates the configuration and prepares a run from the initial
// placement (not mutated).
func New(model core.CostModel, proto protocol.Protocol, initial *core.Assignment, cfg Config) (*Simulator, error) {
	if im := initial.Model(); im.NumMachines() != model.NumMachines() || im.NumJobs() != model.NumJobs() {
		return nil, fmt.Errorf("netsim: initial assignment is for %d machines × %d jobs, cost model has %d × %d",
			im.NumMachines(), im.NumJobs(), model.NumMachines(), model.NumJobs())
	}
	if !initial.Complete() {
		return nil, fmt.Errorf("netsim: initial assignment must place every job")
	}
	if cfg.Latency < 1 {
		return nil, fmt.Errorf("netsim: latency must be >= 1")
	}
	if cfg.Period < 1 {
		return nil, fmt.Errorf("netsim: period must be >= 1")
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("netsim: horizon must be >= 1")
	}
	if cfg.RTO < 0 || cfg.RTOCap < 0 || cfg.MaxRequestRetries < 0 {
		return nil, fmt.Errorf("netsim: RTO, RTOCap and MaxRequestRetries must be >= 0")
	}
	var jitterMax int64
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(model.NumMachines()); err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		jitterMax = cfg.Faults.JitterMax
	}
	s := &Simulator{
		model:   model,
		proto:   proto,
		cfg:     cfg,
		sim:     des.New(),
		ms:      make([]machineState, model.NumMachines()),
		deadRes: make(map[resKey]resKind),
		spans:   cfg.Spans,
		tl:      cfg.Timeline,
	}
	if s.spans != nil {
		s.runSpan = s.spans.NextID()
	}
	if cfg.Faults != nil {
		s.plan = faults.NewPlan(rng.DeriveSeed(cfg.Seed, faultsStream), *cfg.Faults)
	}
	s.rto = cfg.RTO
	if s.rto == 0 {
		s.rto = 3*(cfg.Latency+jitterMax) + 1
	}
	s.rtoCap = cfg.RTOCap
	if s.rtoCap == 0 {
		s.rtoCap = 16 * s.rto
	}
	if s.rtoCap < s.rto {
		return nil, fmt.Errorf("netsim: RTOCap %d below RTO %d", s.rtoCap, s.rto)
	}
	s.maxReqRetries = cfg.MaxRequestRetries
	if s.maxReqRetries == 0 {
		s.maxReqRetries = 6
	}
	root := rng.New(cfg.Seed)
	s.gens = make([]*rng.RNG, model.NumMachines())
	for i := range s.gens {
		s.gens[i] = root.Split()
	}
	for i := range s.ms {
		s.ms[i].up = true
	}
	for j := 0; j < model.NumJobs(); j++ {
		i := initial.MachineOf(j)
		s.ms[i].jobs = append(s.ms[i].jobs, j)
	}
	return s, nil
}

// post transmits a message: the fault plan decides drop/duplication/jitter,
// and each surviving copy delivers fn after its network hop — unless the
// sender has since crashed (its epoch moved) or the receiver is down.
//
// Every message carries the session span it belongs to (sp, 0 when spans are
// off) and the sender's Lamport clock: the clock is bumped at the send,
// merged (max + 1) at each delivery, and a dropped transmission is recorded
// as a KindFault span attributed to the session that suffered it.
func (s *Simulator) post(kind, from, to int, sp span.ID, fn func()) {
	s.ms[from].clock++
	mclk := s.ms[from].clock
	s.stats.Sent++
	met := s.cfg.Metrics
	if met != nil {
		met.Sent.At(kind).Inc()
	}
	out := faults.Outcome{Copies: 1}
	if s.plan != nil {
		out = s.plan.Message(from, to)
	}
	if out.Copies == 0 {
		s.stats.Dropped++
		if met != nil {
			met.Dropped.Inc()
		}
		s.faultSpan(sp, span.TagDrop, from, to, mclk, int64(kind))
		return
	}
	if out.Copies > 1 {
		s.stats.Duplicated += out.Copies - 1
		if met != nil {
			met.Duplicated.Add(int64(out.Copies - 1))
		}
	}
	epoch := s.ms[from].epoch
	for c := 0; c < out.Copies; c++ {
		delay := s.cfg.Latency + out.Jitter[c]
		s.sim.After(delay, des.PhaseTransfer, func() {
			if s.ms[from].epoch != epoch || !s.ms[to].up {
				s.stats.CrashDropped++
				if met != nil {
					met.CrashDropped.Inc()
				}
				return
			}
			rm := &s.ms[to]
			if mclk > rm.clock {
				rm.clock = mclk
			}
			rm.clock++
			s.stats.Delivered++
			if met != nil {
				met.Delivered.At(kind).Inc()
				met.Latency.Observe(delay)
			}
			fn()
		})
	}
}

// faultSpan appends a KindFault point record attributing a network incident
// (drop, retransmission, timeout, crash, recovery) to the span it degraded —
// a session span, or the run span for machine-level events.
func (s *Simulator) faultSpan(parent span.ID, tag span.Tag, a, b int, clk uint64, value int64) {
	if s.spans == nil {
		return
	}
	now := s.sim.Now()
	s.spans.Append(span.Span{
		Parent: parent,
		Kind:   span.KindFault,
		Tag:    tag,
		A:      int32(a),
		B:      int32(b),
		Start:  now,
		End:    now,
		Clock:  clk,
		Value:  value,
	})
}

// closeSession appends one side's close record for a session span: both
// participants close the same ID with their own role Tag and Lamport clock,
// and consumers merge the two records by ID.
func (s *Simulator) closeSession(id span.ID, tag span.Tag, fl span.Flags, initiator, target int, start int64, clk uint64, value int64) {
	if s.spans == nil || id == 0 {
		return
	}
	s.spans.Append(span.Span{
		ID:     id,
		Parent: s.runSpan,
		Kind:   span.KindSession,
		Tag:    tag,
		Flags:  fl,
		A:      int32(initiator),
		B:      int32(target),
		Start:  start,
		End:    s.sim.Now(),
		Clock:  clk,
		Value:  value,
	})
}

func (s *Simulator) dupSuppressed() {
	s.stats.DupSuppressed++
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.DupSuppressed.Inc()
	}
}

// Run executes until the horizon (plus drainage of in-flight handshakes
// and scheduled recoveries) and returns the statistics.
func (s *Simulator) Run() Stats {
	m := s.model.NumMachines()
	if m > 1 {
		for i := 0; i < m; i++ {
			s.scheduleAttempt(i)
		}
	}
	if s.plan != nil {
		for _, cr := range s.plan.Crashes() {
			cr := cr
			s.sim.At(cr.At, des.PhaseComplete, func() { s.crash(cr) })
			if cr.RecoverAt > 0 {
				s.sim.At(cr.RecoverAt, des.PhaseComplete, func() { s.recover(cr.Machine) })
			}
		}
	}
	// Makespan sampling once per period.
	var sampler func()
	sampler = func() {
		cmax, sum := s.loadStats()
		s.stats.Times = append(s.stats.Times, s.sim.Now())
		s.stats.Makespans = append(s.stats.Makespans, cmax)
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Makespan.Set(int64(cmax))
		}
		if s.tl != nil {
			s.tl.Record(timeline.Point{
				Time:      s.sim.Now(),
				Cmax:      int64(cmax),
				Imbalance: int64(cmax) - sum/int64(len(s.ms)),
				Moves:     int64(s.stats.JobsMoved),
				Messages:  int64(s.stats.Sent),
			})
		}
		if s.sim.Now()+s.cfg.Period <= s.cfg.Horizon {
			s.sim.After(s.cfg.Period, des.PhaseComplete, sampler)
		}
	}
	s.sim.At(0, des.PhaseComplete, sampler)

	// Drain the queue completely: no NEW session starts after the horizon
	// (attempt checks the clock), but handshakes already on the wire finish
	// — possibly through retransmissions — so ownership is never truncated
	// mid-transfer. The open-session leases keep the queue non-empty until
	// every session resolves, so a full drain implies no machine is wedged.
	for s.sim.Step() {
		if s.cfg.MaxEvents > 0 && s.sim.Processed() > s.cfg.MaxEvents {
			panic(fmt.Sprintf("netsim: event watchdog: %d events without draining (livelocked handshake?)", s.cfg.MaxEvents))
		}
	}
	// Settlement: initiators whose target died before applying a commit may
	// not attempt again after the horizon; reclaim those outboxes now.
	for i := range s.ms {
		s.sweepOutbox(i)
	}
	s.stats.FinalMakespan = s.makespan()
	if s.spans != nil {
		s.spans.Append(span.Span{
			ID:     s.runSpan,
			Parent: s.spans.Root(),
			Kind:   span.KindRun,
			A:      -1,
			B:      -1,
			Start:  0,
			End:    s.sim.Now(),
			Value:  int64(s.stats.FinalMakespan),
		})
	}
	return s.stats
}

// scheduleAttempt queues machine i's next balancing attempt with jitter; it
// stops re-arming once the horizon has passed so the event queue drains.
// The attempt carries the machine's epoch, so chains scheduled by a
// previous incarnation die after a crash.
func (s *Simulator) scheduleAttempt(i int) {
	gap := s.cfg.Period/2 + s.gens[i].Int64n(s.cfg.Period) // U[P/2, 3P/2)
	if gap < 1 {
		gap = 1
	}
	if s.sim.Now()+gap > s.cfg.Horizon {
		return
	}
	epoch := s.ms[i].epoch
	s.sim.After(gap, des.PhaseStart, func() { s.attempt(i, epoch) })
}

// attempt starts a session if machine i is free. The attempt's start time
// travels with the handshake so the completed-session duration can be
// observed at COMMIT delivery.
func (s *Simulator) attempt(i int, epoch uint32) {
	m := &s.ms[i]
	if m.epoch != epoch {
		return // chain from a previous incarnation; recovery started a new one
	}
	defer s.scheduleAttempt(i)
	s.sweepOutbox(i)
	if m.initSeq != 0 || m.tgtSeq != 0 {
		return // still in a session (as target or initiator); try later
	}
	peer := s.gens[i].Pick(s.model.NumMachines(), i)
	m.seq++
	seq := m.seq
	m.initSeq = seq
	m.initPeer = peer
	m.initStart = s.sim.Now()
	m.initRetries = 0
	var sid span.ID
	if s.spans != nil {
		sid = s.spans.NextID()
	}
	m.initSpan = sid
	start := m.initStart
	s.post(MsgRequest, i, peer, sid, func() { s.onRequest(i, peer, seq, start, sid) })
	if s.plan != nil {
		// A perfect network resolves every session within one RTO, so the
		// leases would only burn events; arm them only under a fault plan.
		s.armInitiatorLease(i, seq, 0)
	}
}

// backoff is the lease delay for the given retry count: RTO doubling up to
// RTOCap.
func (s *Simulator) backoff(retry int) int64 {
	d := s.rto
	for r := 0; r < retry && d < s.rtoCap; r++ {
		d <<= 1
	}
	if d > s.rtoCap {
		d = s.rtoCap
	}
	return d
}

func (s *Simulator) armInitiatorLease(i int, seq uint64, retry int) {
	s.sim.After(s.backoff(retry), des.PhaseStart, func() { s.initiatorLease(i, seq, retry) })
}

// initiatorLease fires when the initiator has waited one backoff step
// without the session resolving. Retries are bounded: before the OFFER is
// processed the pool has not moved, so giving up is always safe.
func (s *Simulator) initiatorLease(i int, seq uint64, retry int) {
	m := &s.ms[i]
	if m.initSeq != seq {
		return // session completed, was rejected, or the machine crashed
	}
	met := s.cfg.Metrics
	s.stats.Timeouts++
	if met != nil {
		met.Timeouts.Inc()
	}
	s.faultSpan(m.initSpan, span.TagTimeout, i, m.initPeer, m.clock, int64(retry))
	key := resKey{i, seq}
	if s.deadRes[key] == resAbortInitiator {
		// The target died holding the pool; its fate was settled at the
		// crash (lost or frozen with the target).
		delete(s.deadRes, key)
		s.closeSession(m.initSpan, span.TagInitiator, span.FlagAborted|span.FlagCrashed, i, m.initPeer, m.initStart, m.clock, 0)
		m.initSeq = 0
		m.initSpan = 0
		s.stats.Aborts++
		if met != nil {
			met.Aborts.Inc()
		}
		return
	}
	if retry >= s.maxReqRetries {
		s.closeSession(m.initSpan, span.TagInitiator, span.FlagAborted, i, m.initPeer, m.initStart, m.clock, 0)
		m.initSeq = 0
		m.initSpan = 0
		s.stats.Aborts++
		if met != nil {
			met.Aborts.Inc()
		}
		return
	}
	s.stats.Retransmissions++
	if met != nil {
		met.Retransmissions.Inc()
	}
	m.initRetries++
	peer, start := m.initPeer, m.initStart
	sid := m.initSpan
	s.faultSpan(sid, span.TagRetransmit, i, peer, m.clock, MsgRequest)
	s.post(MsgRequest, i, peer, sid, func() { s.onRequest(i, peer, seq, start, sid) })
	s.armInitiatorLease(i, seq, retry+1)
}

func (s *Simulator) armTargetLease(t, peer int, seq uint64, retry int) {
	s.sim.After(s.backoff(retry), des.PhaseStart, func() { s.targetLease(t, peer, seq, retry) })
}

// targetLease fires when the target has escrowed its pool for one backoff
// step without a COMMIT or ABORT. It re-OFFERs without bound (the pool is
// in limbo, so the target may not guess an outcome) — unless the initiator
// crashed, in which case the resolution recorded at the crash is applied.
// The lease is keyed on (peer, seq): seq alone comes from the peer's
// counter, so two sessions from different initiators may carry equal
// values.
func (s *Simulator) targetLease(t, peer int, seq uint64, retry int) {
	m := &s.ms[t]
	if m.tgtSeq != seq || m.tgtPeer != peer {
		return // session resolved or the machine crashed
	}
	met := s.cfg.Metrics
	s.stats.Timeouts++
	if met != nil {
		met.Timeouts.Inc()
	}
	s.faultSpan(m.tgtSpan, span.TagTimeout, peer, t, m.clock, int64(retry))
	if _, ok := s.deadRes[resKey{peer, seq}]; ok {
		s.resolveTarget(t, resRestoreEscrow)
		return
	}
	s.stats.Retransmissions++
	if met != nil {
		met.Retransmissions.Inc()
	}
	offered := m.escrow
	sid := m.tgtSpan
	s.faultSpan(sid, span.TagRetransmit, t, peer, m.clock, MsgOffer)
	s.post(MsgOffer, t, peer, sid, func() { s.onOffer(peer, t, seq, offered, sid) })
	s.armTargetLease(t, peer, seq, retry+1)
}

// resolveTarget ends machine t's open target session without a commit,
// preferring the resolution a peer crash recorded over the caller's
// default: restore the escrowed pool (it never changed hands) or drop it
// (the initiator committed, so the escrow is a stale duplicate).
func (s *Simulator) resolveTarget(t int, def resKind) {
	m := &s.ms[t]
	key := resKey{m.tgtPeer, m.tgtSeq}
	kind := def
	fromCrash := false
	if r, ok := s.deadRes[key]; ok {
		kind = r
		fromCrash = true
		delete(s.deadRes, key)
	}
	if kind != resDropEscrow {
		// Merge, don't assign: while the session was open the target may
		// have reclaimed an outbox from an earlier initiator role, so jobs
		// is not necessarily empty.
		m.jobs = pairwise.MergeSortedInto(nil, m.jobs, m.escrow)
	}
	fl := span.FlagAborted
	if kind == resDropEscrow {
		// The initiator committed before dying: the session succeeded, the
		// target just learned it through the crash resolution.
		fl = span.FlagCommitted
	}
	if fromCrash {
		fl |= span.FlagCrashed
	}
	s.closeSession(m.tgtSpan, span.TagTarget, fl, m.tgtPeer, t, m.tgtStart, m.clock, 0)
	m.escrow = nil
	m.tgtSeq = 0
	m.tgtSpan = 0
	s.stats.Aborts++
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Aborts.Inc()
	}
}

// onRequest is the target's handler. On acceptance the target escrows its
// whole job list and offers it (single ownership: from the OFFER's
// processing to the COMMIT's, the pooled jobs live at the initiator side).
func (s *Simulator) onRequest(initiator, target int, seq uint64, start int64, sid span.ID) {
	m := &s.ms[target]
	if m.tgtSeq == seq && m.tgtPeer == initiator {
		// Duplicate REQUEST for the session we already accepted: the OFFER
		// was probably lost — resend it.
		s.dupSuppressed()
		s.stats.Retransmissions++
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Retransmissions.Inc()
		}
		offered := m.escrow
		osid := m.tgtSpan
		s.faultSpan(osid, span.TagRetransmit, target, initiator, m.clock, MsgOffer)
		s.post(MsgOffer, target, initiator, osid, func() { s.onOffer(initiator, target, seq, offered, osid) })
		return
	}
	if seq <= m.lastSeq[initiator] {
		s.dupSuppressed() // stale duplicate of a session already finished
		return
	}
	if m.initSeq != 0 || m.tgtSeq != 0 {
		s.stats.Rejections++
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Rejections.Inc()
		}
		s.post(MsgReject, target, initiator, sid, func() { s.onReject(initiator, target, seq) })
		return
	}
	if m.lastSeq == nil {
		m.lastSeq = make(map[int]uint64)
	}
	m.lastSeq[initiator] = seq
	m.tgtSeq = seq
	m.tgtPeer = initiator
	m.tgtStart = start
	m.tgtSpan = sid
	m.escrow = m.jobs
	m.jobs = nil
	offered := m.escrow
	s.post(MsgOffer, target, initiator, sid, func() { s.onOffer(initiator, target, seq, offered, sid) })
	if s.plan != nil {
		s.armTargetLease(target, initiator, seq, 0)
	}
}

// onReject unlocks the initiator.
func (s *Simulator) onReject(initiator, target int, seq uint64) {
	m := &s.ms[initiator]
	if m.initSeq != seq || m.initPeer != target {
		s.dupSuppressed()
		return
	}
	s.closeSession(m.initSpan, span.TagInitiator, span.FlagRejected, initiator, target, m.initStart, m.clock, 0)
	m.initSeq = 0
	m.initSpan = 0
}

// onOffer runs the pair step at the initiator and commits. This is the
// session's single ownership-transfer point: the initiator takes the whole
// pool, keeps its half, and records the target's half in the done outbox
// before the COMMIT goes on the (lossy) wire.
func (s *Simulator) onOffer(initiator, target int, seq uint64, targetJobs []int, sid span.ID) {
	m := &s.ms[initiator]
	if m.initSeq == seq && m.initPeer == target {
		// A reclaim pending against a previous session with this target
		// must merge back before the step, so the step sees those jobs.
		s.sweepOutbox(initiator)
		sc := &s.scratch
		toI, toT := protocol.Step(s.proto, sc, initiator, target, m.jobs, targetJobs)
		// Jobs that switched machines: arrived at the initiator (absent from
		// its pre-step list) or at the target (absent from the offer).
		moved := len(sc.Diff1) + len(sc.Diff2)
		s.stats.JobsMoved += moved
		toI, toT = slices.Clone(toI), slices.Clone(toT)
		m.jobs = toI
		if m.done == nil {
			m.done = make(map[int]doneRec)
		}
		csid := m.initSpan
		m.done[target] = doneRec{seq: seq, toT: toT, span: csid}
		s.closeSession(csid, span.TagInitiator, span.FlagCommitted, initiator, target, m.initStart, m.clock, int64(moved))
		m.initSeq = 0
		m.initSpan = 0
		s.stats.Sessions++
		if met := s.cfg.Metrics; met != nil {
			met.Sessions.Inc()
			met.SessionRetries.Observe(int64(m.initRetries))
		}
		s.post(MsgCommit, initiator, target, csid, func() { s.onCommit(initiator, target, seq, toT) })
		return
	}
	if d, ok := m.done[target]; ok && d.seq == seq {
		// OFFER retransmitted after we committed: the COMMIT was lost.
		s.dupSuppressed()
		s.stats.Retransmissions++
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Retransmissions.Inc()
		}
		s.faultSpan(d.span, span.TagRetransmit, initiator, target, m.clock, MsgCommit)
		s.post(MsgCommit, initiator, target, d.span, func() { s.onCommit(initiator, target, seq, d.toT) })
		return
	}
	// A session this machine no longer knows (it gave up, or crashed and
	// lost the volatile state): tell the target to resolve.
	s.dupSuppressed()
	s.post(MsgAbort, initiator, target, sid, func() { s.onAbort(initiator, target, seq) })
}

// onCommit installs the target's new job list and unlocks it. Session ids
// make this idempotent: duplicates and stale commits are suppressed.
func (s *Simulator) onCommit(initiator, target int, seq uint64, jobs []int) {
	m := &s.ms[target]
	if m.tgtSeq != seq || m.tgtPeer != initiator {
		s.dupSuppressed()
		return
	}
	// Merge, don't assign: jobs the target reclaimed from an old outbox
	// while this session was open live in m.jobs and are not part of the
	// committed split.
	m.jobs = pairwise.MergeSortedInto(nil, m.jobs, jobs)
	m.escrow = nil
	s.closeSession(m.tgtSpan, span.TagTarget, span.FlagCommitted, initiator, target, m.tgtStart, m.clock, int64(len(jobs)))
	m.tgtSeq = 0
	m.tgtSpan = 0
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Handshake.Observe(s.sim.Now() - m.tgtStart)
	}
}

// onAbort restores (or, per a crash resolution, drops) the target's escrow
// when the initiator disowns the session.
func (s *Simulator) onAbort(initiator, target int, seq uint64) {
	m := &s.ms[target]
	if m.tgtSeq != seq || m.tgtPeer != initiator {
		s.dupSuppressed()
		return
	}
	s.resolveTarget(target, resRestoreEscrow)
}

// sweepOutbox reclaims machine i's outbox entries whose target crashed
// before applying the commit (resolution recorded at the crash). Called on
// every attempt and at settlement; free when no crash is pending.
func (s *Simulator) sweepOutbox(i int) {
	m := &s.ms[i]
	if len(m.done) == 0 || len(s.deadRes) == 0 {
		return
	}
	for t := range s.ms {
		d, ok := m.done[t]
		if !ok {
			continue
		}
		key := resKey{i, d.seq}
		if s.deadRes[key] != resReclaimOutbox {
			continue
		}
		delete(s.deadRes, key)
		delete(m.done, t)
		m.jobs = pairwise.MergeSortedInto(nil, m.jobs, d.toT)
		s.stats.JobsReclaimed += len(d.toT)
		if met := s.cfg.Metrics; met != nil {
			met.JobsReclaimed.Add(int64(len(d.toT)))
		}
	}
}

// crash takes machine cr.Machine down: its in-flight messages and pending
// attempt chain are voided (epoch), its open sessions are torn down with a
// deterministic resolution recorded for each surviving peer, and the jobs
// it physically held are either appended to the lost ledger or frozen for
// re-hosting, per the plan.
func (s *Simulator) crash(cr faults.Crash) {
	x := cr.Machine
	m := &s.ms[x]
	if !m.up {
		return
	}
	now := s.sim.Now()
	phys := m.jobs // jobs physically at x at the instant of the crash
	m.jobs = nil

	// x was waiting as initiator: the pool never left the target's escrow.
	if m.initSeq != 0 {
		key := resKey{x, m.initSeq}
		if r, ok := s.deadRes[key]; ok {
			if r == resAbortInitiator { // target died first; x never consumed it
				delete(s.deadRes, key)
			}
		} else if t := m.initPeer; s.ms[t].tgtSeq == m.initSeq && s.ms[t].tgtPeer == x {
			s.deadRes[key] = resRestoreEscrow
		}
		s.faultSpan(m.initSpan, span.TagCrash, x, m.initPeer, m.clock, 0)
		s.closeSession(m.initSpan, span.TagInitiator, span.FlagAborted|span.FlagCrashed, x, m.initPeer, m.initStart, m.clock, 0)
		m.initSeq = 0
		m.initSpan = 0
	}
	// x was holding an escrow as target: decide where the pool lives.
	if m.tgtSeq != 0 {
		i := m.tgtPeer
		key := resKey{i, m.tgtSeq}
		if r, ok := s.deadRes[key]; ok {
			// The initiator crashed first and settled the pool's fate.
			delete(s.deadRes, key)
			if r == resRestoreEscrow {
				phys = append(phys, m.escrow...)
			} // resDropEscrow: the escrow is a stale duplicate
		} else if d, ok := s.ms[i].done[x]; ok && d.seq == m.tgtSeq {
			// Committed but unapplied: the pool is split between the
			// initiator's jobs and its outbox; x's escrow is stale and the
			// outbox can never be applied — the initiator reclaims it.
			s.deadRes[key] = resReclaimOutbox
		} else if s.ms[i].initSeq == m.tgtSeq && s.ms[i].initPeer == x {
			// Initiator still waiting: the pool dies with x; free the peer.
			s.deadRes[key] = resAbortInitiator
			phys = append(phys, m.escrow...)
		} else {
			// Initiator already gave up: the pool dies with x.
			phys = append(phys, m.escrow...)
		}
		s.faultSpan(m.tgtSpan, span.TagCrash, x, m.tgtPeer, m.clock, 0)
		s.closeSession(m.tgtSpan, span.TagTarget, span.FlagAborted|span.FlagCrashed, m.tgtPeer, x, m.tgtStart, m.clock, 0)
		m.escrow = nil
		m.tgtSeq = 0
		m.tgtSpan = 0
	}
	// Open target sessions elsewhere whose initiator is x.
	for t := range s.ms {
		tm := &s.ms[t]
		if t == x || tm.tgtSeq == 0 || tm.tgtPeer != x {
			continue
		}
		key := resKey{x, tm.tgtSeq}
		if _, ok := s.deadRes[key]; ok {
			continue // resolved above (x was still waiting on this session)
		}
		if d, ok := m.done[t]; ok && d.seq == tm.tgtSeq {
			// x committed but t never applied: the outbox dies with x and
			// t's escrow is the stale half — t must drop it.
			phys = append(phys, d.toT...)
			delete(m.done, t)
			s.deadRes[key] = resDropEscrow
		} else {
			// x gave this session up before crashing: t restores its pool.
			s.deadRes[key] = resRestoreEscrow
		}
	}
	// Remaining outbox entries: consume reclaim markers from targets that
	// crashed earlier (those jobs are physically at x); applied sessions
	// leave only stale records.
	for t := range s.ms {
		d, ok := m.done[t]
		if !ok {
			continue
		}
		key := resKey{x, d.seq}
		if s.deadRes[key] == resReclaimOutbox {
			delete(s.deadRes, key)
			phys = append(phys, d.toT...)
		}
		delete(m.done, t)
	}

	m.epoch++
	m.up = false
	sort.Ints(phys)
	s.stats.Crashes++
	met := s.cfg.Metrics
	if met != nil {
		met.Crashes.Inc()
	}
	s.faultSpan(s.runSpan, span.TagCrash, x, -1, m.clock, int64(len(phys)))
	if cr.LoseJobs {
		for _, j := range phys {
			s.stats.Lost = append(s.stats.Lost, LostJob{Job: j, Machine: x, Time: now})
		}
		s.stats.JobsLost += len(phys)
		if met != nil {
			met.JobsLost.Add(int64(len(phys)))
		}
	} else {
		m.retained = phys
	}
}

// recover brings a crashed machine back with a fresh epoch, re-hosts its
// frozen jobs, and restarts its balancing attempts.
func (s *Simulator) recover(x int) {
	m := &s.ms[x]
	if m.up {
		return
	}
	m.up = true
	m.epoch++
	m.jobs = m.retained
	m.retained = nil
	s.stats.Recoveries++
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Recoveries.Inc()
	}
	s.faultSpan(s.runSpan, span.TagRecover, x, -1, m.clock, int64(len(m.jobs)))
	if len(s.ms) > 1 {
		s.scheduleAttempt(x)
	}
}

// ValidateConservation checks the post-drain invariant: every job of the
// model is placed exactly once — in a machine's job list (frozen lists of
// down machines included) or in the lost ledger — no session, escrow or
// crash resolution is left open, and no job is both placed and lost. Call
// it after Run.
func (s *Simulator) ValidateConservation() error {
	owner := make([]int, s.model.NumJobs())
	for j := range owner {
		owner[j] = -1
	}
	claim := func(j, i int, what string) error {
		if j < 0 || j >= len(owner) {
			return fmt.Errorf("netsim: unknown job %d in %s of machine %d", j, what, i)
		}
		if owner[j] != -1 {
			return fmt.Errorf("netsim: job %d in %s of machine %d already owned by machine %d", j, what, i, owner[j])
		}
		owner[j] = i
		return nil
	}
	for i := range s.ms {
		m := &s.ms[i]
		if m.initSeq != 0 {
			return fmt.Errorf("netsim: machine %d wedged as initiator of session %d", i, m.initSeq)
		}
		if m.tgtSeq != 0 {
			return fmt.Errorf("netsim: machine %d wedged as target of session %d", i, m.tgtSeq)
		}
		if len(m.escrow) > 0 {
			return fmt.Errorf("netsim: machine %d left %d jobs in escrow", i, len(m.escrow))
		}
		for _, j := range m.jobs {
			if err := claim(j, i, "job list"); err != nil {
				return err
			}
		}
		for _, j := range m.retained {
			if err := claim(j, i, "frozen list"); err != nil {
				return err
			}
		}
	}
	for _, l := range s.stats.Lost {
		if l.Job < 0 || l.Job >= len(owner) {
			return fmt.Errorf("netsim: unknown job %d in lost ledger", l.Job)
		}
		if owner[l.Job] != -1 {
			return fmt.Errorf("netsim: job %d both placed (machine %d) and recorded lost", l.Job, owner[l.Job])
		}
		owner[l.Job] = -2
	}
	for j, o := range owner {
		if o == -1 {
			return fmt.Errorf("netsim: job %d neither placed nor recorded lost", j)
		}
	}
	for k, r := range s.deadRes { //hetlb:nondeterministic-ok error path: the map must be empty, so which entry names the failure is immaterial
		return fmt.Errorf("netsim: unconsumed crash resolution %d for session (%d, %d)", r, k.init, k.seq)
	}
	if s.plan != nil {
		// Run drains every scheduled recovery, so the machines still down
		// must be exactly the schedule's permanent crashes — the dynamic
		// crash state cross-checked against the pure fault plan.
		cfg := s.plan.Config()
		for i := range s.ms {
			if wantDown := cfg.DownAt(i, math.MaxInt64); s.ms[i].up == wantDown {
				return fmt.Errorf("netsim: machine %d ended up=%v but the fault plan schedules down=%v forever",
					i, s.ms[i].up, wantDown)
			}
		}
	}
	return nil
}

// makespan computes Cmax from the owned job lists (frozen lists of down
// machines included; lost jobs gone). Mid-handshake the pooled jobs live
// at the initiator/on the wire, so a sample may transiently undercount the
// target; it can never double-count (single ownership), and the final
// value is taken after the queue drains with no handshake in flight.
func (s *Simulator) makespan() core.Cost {
	max, _ := s.loadStats()
	return max
}

// loadStats scans the owned job lists once and returns both Cmax and the
// total load, so the timeline's imbalance column shares the makespan scan.
func (s *Simulator) loadStats() (core.Cost, int64) {
	var max core.Cost
	var sum int64
	for i := range s.ms {
		var l core.Cost
		for _, j := range s.ms[i].jobs {
			l += s.model.Cost(i, j)
		}
		for _, j := range s.ms[i].retained {
			l += s.model.Cost(i, j)
		}
		sum += int64(l)
		if l > max {
			max = l
		}
	}
	return max, sum
}

// Placement reconstructs a core.Assignment from the current job lists
// (frozen lists of down machines included). Jobs recorded lost stay
// unassigned, so the assignment is Complete only when nothing was lost.
func (s *Simulator) Placement() (*core.Assignment, error) {
	a := core.NewAssignment(s.model)
	place := func(i int, jobs []int) error {
		for _, j := range jobs {
			if a.MachineOf(j) != -1 {
				return fmt.Errorf("netsim: job %d owned twice", j)
			}
			a.Assign(j, i)
		}
		return nil
	}
	for i := range s.ms {
		if err := place(i, s.ms[i].jobs); err != nil {
			return nil, err
		}
		if err := place(i, s.ms[i].retained); err != nil {
			return nil, err
		}
	}
	return a, nil
}
