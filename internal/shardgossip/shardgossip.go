// Package shardgossip is the sharded, parallel counterpart of the
// sequential engine in internal/gossip: S workers step one run of a
// decentralized protocol at 100k-machine / 10M-job scale, and the result is
// bit-identical at ANY shard count — including S=1, which replays the exact
// trajectory of gossip.Engine under the same schedule (see
// MatchingSelection).
//
// # Execution model
//
// S workers step the engine; the coordinator is worker 0. Time advances in
// epochs. Each epoch's schedule — a random perfect matching of the machines
// — is drawn by a dedicated scheduler goroutine one epoch ahead (see
// "Pipelined schedule" below). The schedule is only the matching: no session
// belongs to a worker. StepEpoch resets one atomic session counter and wakes
// the other workers, and every worker, the coordinator included, claims the
// epoch's sessions from that counter in chunks of consecutive indices until
// none are left. A chunk is about an eighth of a worker's even share and at
// least one session, so a worker that wakes late or a chunk that runs slow
// leaves the rest of the epoch to the others instead of holding the barrier.
// Workers execute their sessions without locks: the matching guarantees the
// sessions of one epoch touch pairwise-disjoint machine state, so a session
// writes its pair's job lists and loads and its worker's tallies, nothing
// shared. A barrier closes the epoch: the coordinator sums the S workers'
// tallies in shard order, recomputes the aggregates if a load changed (see
// "The barrier pass") and notifies metrics, spans, timeline and observers
// once per epoch.
//
// # The barrier pass
//
// Cmax and ΣC are computed in one place, reduceLoads: one pass over the m
// loads, which the barrier runs when a session of the epoch changed a load,
// and New and a LoseJobs crash of a loaded machine run too. A quiet epoch,
// and every epoch after the placement is verified stable, reads no load.
// The pass is serial, but an epoch that changed a load ran ⌊m/2⌋ sessions
// that each read two job lists, so the pass is a small fraction of the epoch
// it closes (DESIGN.md §14 gives the measured costs).
//
// # Pipelined schedule
//
// The matching for epoch k is a pure function of (seed, k):
// Reseed(DeriveSeed(seed, k)) + one PermInto, pairing perm[2t] with
// perm[2t+1]. Because it depends on nothing else, epoch k+1's schedule is
// drawn by the scheduler goroutine while epoch k executes, double-buffered
// and handed over by channel, so the serial draw leaves the critical path.
// StepEpoch receives the pre-drawn front buffer, immediately recycles the
// previous buffer to the scheduler for epoch k+1, and only then starts the
// workers.
//
// # Sessions without cost reads
//
// A session reads no job's cost: protocol.Step leaves the pair's new loads
// on the worker's scratch, summed by the kernel as it placed the jobs
// (integer arithmetic, so the result is bit-identical to a recomputation
// from the job lists), and the arrivals it reports for each side say
// whether anything moved. A session that moved nothing skips the
// write-back entirely. On top of
// that, once a Run's stability check has *proved* the placement
// pairwise-stable, the engine latches a verified-stable fast path: every
// later session is known to be a step that moves nothing and only performs
// the bookkeeping (exchange counters, spans), making converged epochs O(1)
// per session regardless of the mean jobs-per-machine.
//
// # Incremental stability check
//
// The check that proves stability is protocol.Checker on the sessions' own
// step, protocol.Step, which the sequential engine runs too. It answers as a
// scan of every pair from (0,1) would, but steps only the pairs it has not
// verified since their machines last changed: a session that moved jobs
// marks its two machines, and every crash or recovery marks its machine,
// whose pairs were skipped while it was down. The engine builds the checker
// at its first check, a full scan, so a run that never checks neither
// builds it nor marks. Run still checks after every 2m quiet sessions, so
// the trajectory is that of a full rescan; only the check's cost falls.
//
// # Determinism argument
//
// The schedule is a pure function of (seed, epoch) drawn by the single
// scheduler goroutine; no worker holds a generator, and no random draw ever
// happens on a worker goroutine, so goroutine interleaving cannot reach the
// schedule. Because the schedule is a matching, the sessions of one epoch
// touch pairwise-disjoint machine state; any interleaving of them produces
// the same post-epoch state, so placements, loads, moves and exchange
// counters are bit-identical for any shard count, any GOMAXPROCS and any
// split of the claimed chunks among the workers. (The alternative of
// per-worker rng.Substream(seed, shard, epoch) generators was rejected: any
// shard-keyed draw that feeds the schedule would make results depend on S,
// breaking cross-shard-count identity.) The per-worker tallies are sums,
// reduced in shard order, and the barrier pass recomputes Cmax and ΣC from
// the loads alone, so neither can introduce interleaving dependence.
//
// Span traces do not depend on who ran a session. Each session writes its
// record into the epoch's slot for its session index, and at the barrier
// the coordinator appends the slots in index order to the engine's own
// recorder, after the epoch's fault records. Every ID then comes from that
// recorder's one sequence, so the trace is byte-identical at every shard
// count and GOMAXPROCS, and a recorder smaller than the run counts what it
// drops.
package shardgossip

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/gossip"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
)

// Metrics bundles the engine's obs instruments. All record paths are
// allocation-free; a nil *Metrics disables instrumentation with one branch
// per epoch.
type Metrics struct {
	// Epochs counts completed epochs; Sessions the pairwise sessions they
	// executed; Changed those that altered a pair's loads; Moves the job
	// migrations.
	Epochs, Sessions, Changed, Moves *obs.Counter
	// Makespan tracks Cmax after every epoch barrier.
	Makespan *obs.Gauge
	// EpochMoves is the distribution of migrations per epoch.
	EpochMoves *obs.Histogram
	// Crashes and Recoveries count fault-plan transitions applied; JobsLost
	// and JobsRehosted the jobs a LoseJobs crash removed / a recovery brought
	// back; Voided the sessions skipped because a participant was down.
	Crashes, Recoveries, JobsLost, JobsRehosted, Voided *obs.Counter
	// Down gauges the number of machines currently down.
	Down *obs.Gauge
}

// NewMetrics registers the engine's instruments on a registry (idempotent on
// the same registry).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Epochs:     r.Counter("shardgossip_epochs_total", "epochs executed (one schedule barrier each)"),
		Sessions:   r.Counter("shardgossip_sessions_total", "pairwise balancing sessions executed"),
		Changed:    r.Counter("shardgossip_changed_sessions_total", "sessions that changed the pair's loads"),
		Moves:      r.Counter("shardgossip_moves_total", "job migrations across all sessions"),
		Makespan:   r.Gauge("shardgossip_makespan", "current Cmax of the schedule"),
		EpochMoves: r.Histogram("shardgossip_epoch_moves", "jobs migrated per epoch", obs.Pow2Bounds(24)),

		Crashes:      r.Counter("shardgossip_crashes_total", "machine crashes applied from the fault plan"),
		Recoveries:   r.Counter("shardgossip_recoveries_total", "machine recoveries applied from the fault plan"),
		JobsLost:     r.Counter("shardgossip_jobs_lost_total", "jobs permanently lost to LoseJobs crashes"),
		JobsRehosted: r.Counter("shardgossip_jobs_rehosted_total", "frozen jobs re-hosted on machine recovery"),
		Voided:       r.Counter("shardgossip_voided_sessions_total", "sessions voided because a participant was down"),
		Down:         r.Gauge("shardgossip_down_machines", "machines currently down"),
	}
}

// Config parameterizes New.
type Config struct {
	// Seed keys the epoch schedules. Two engines with equal seeds execute
	// identical schedules at any shard count.
	Seed uint64
	// Shards is the number of worker shards S. Zero selects the automatic
	// heuristic AutoShards (GOMAXPROCS clamped to the machine count); the
	// choice never affects results, only parallelism. Explicit values must
	// lie in [1, m]; negative values are rejected.
	Shards int
	// Metrics, when non-nil, receives per-epoch counters (build with
	// NewMetrics).
	Metrics *Metrics
	// Spans, when non-nil, receives one KindSession span per session,
	// appended in session-index order at each epoch's barrier (so StepEpoch
	// alone records them too), and a KindRun close record per Run. The
	// trace is byte-identical at every shard count. Times are logical
	// session indices, never wall clock.
	Spans *span.Recorder
	// Timeline, when non-nil, receives one convergence point per epoch:
	// Time = index of the epoch's last session, Cmax, Imbalance =
	// Cmax − ⌊ΣC/m⌋, cumulative Moves.
	Timeline *timeline.Recorder
	// Faults, when non-nil and non-zero, arms a crash/recovery schedule
	// against the run. Only message-free plans (no drop/dup/jitter) are
	// accepted — the epoch engine exchanges no messages. Virtual time is the
	// epoch index: Crash{At: k} takes the machine down for epochs
	// [At, RecoverAt). The fault-free path pays one nil-check per session;
	// see faults.go for crash semantics and the determinism argument.
	Faults *faults.Config
}

// AutoShards is the Shards: 0 heuristic: one shard per available core
// (runtime.GOMAXPROCS), clamped to [1, m]. More shards than cores only adds
// coordination overhead, and a shard needs at least one machine; results are
// identical for any choice, so the heuristic is free to track the hardware.
func AutoShards(m int) int {
	s := runtime.GOMAXPROCS(0)
	if s < 1 {
		s = 1
	}
	if s > m {
		s = m
	}
	return s
}

// schedule is one epoch's pair matching: session t pairs pairI[t] with
// pairJ[t]. Two schedule buffers double-buffer between the coordinator
// (executing epoch k) and the scheduler goroutine (drawing epoch k+1).
type schedule struct {
	//hetlb:frozen
	pairI []int32
	//hetlb:frozen
	pairJ []int32
}

// shardState is worker s's scratch and its epoch tallies over the sessions
// it claimed (moves/changed/voided), which only worker s writes during an
// epoch and the coordinator sums at the barrier in shard order.
type shardState struct {
	scratch pairwise.Scratch
	moves   int
	changed int
	voided  int
}

// Engine drives one sharded simulation run. It is not safe for concurrent
// use; Step/Run must be called from one goroutine (the coordinator).
type Engine struct {
	proto protocol.Protocol
	model core.CostModel
	seed  uint64

	// Per-machine state. During an epoch each entry is written by at most
	// one worker (the one that claimed the machine's session — the schedule
	// is a matching), and the epoch barrier publishes all writes back to the
	// coordinator.
	jobs      [][]int // jobs[i] is machine i's job list, entries sorted in the protocol's ListOrder
	load      []core.Cost
	exchanges []int

	// Pipelined schedule: cur is the front buffer (the epoch being
	// executed); the scheduler goroutine owns drawGen/perm and fills the
	// back buffer handed to it on drawKick, returning it on drawReady.
	//hetlb:frozen
	cur       *schedule
	drawKick  chan *schedule
	drawReady chan *schedule
	drawGen   *rng.RNG // owned by the scheduler goroutine after New
	perm      []int    // owned by the scheduler goroutine after New

	shards []shardState
	// next is the index of the current epoch's first unclaimed session;
	// StepEpoch resets it before the fan-out, and every worker claims
	// chunks of sessions from it (see runSessions).
	next atomic.Int64

	epoch     int
	sessions  int // total sessions executed; the Stepper's step count
	moves     int
	sumLoad   int64
	cachedMax core.Cost
	// noChange counts consecutive sessions in all-quiet epochs; it gates the
	// stability check, mirroring gossip.Engine.
	noChange int
	// check is the incremental stability checker on the sessions' own step
	// (protocol.Step), built by the first check; a run that never
	// checks never builds it. From then on a session that moved jobs marks
	// its pair (each machine is in one session per epoch, so the marks never
	// collide) and every fault transition marks its machine. The first check
	// scans every pair, so nothing before it needs a mark. The coordinator
	// builds it, reads the marks and clears them between epochs.
	//hetlb:frozen
	check *protocol.Checker
	// stable latches once checkStable proves the placement pairwise-stable;
	// from then on sessions take the bookkeeping-only fast path.
	//hetlb:frozen
	stable bool
	// faults is the dynamic crash state of an armed fault plan; nil on a
	// fault-free engine (see faults.go).
	faults *faultState

	metrics   *Metrics
	spans     *span.Recorder
	runSpan   span.ID
	slots     []span.Span // session t's record until the epoch's barrier; nil when spans are off
	timeline  *timeline.Recorder
	observers []gossip.Observer
	// self is the engine pre-boxed as a gossip.Stepper so observer
	// notification does not box *Engine per epoch.
	self gossip.Stepper

	// Worker pool, live iff len(shards) > 1: worker s (s >= 1) blocks on
	// start[s]; the coordinator is worker 0 and runs inline. Signalling is
	// channel send + WaitGroup, so steady-state epochs allocate nothing.
	start  []chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// New builds a sharded engine from a complete initial assignment. The
// assignment is read once (not mutated and not retained): the engine owns
// per-machine job lists, like the message-passing runtime. Every engine owns
// at least the pipelined-schedule goroutine (plus workers when Shards > 1);
// call Close when done with it.
func New(p protocol.Protocol, initial *core.Assignment, cfg Config) (*Engine, error) {
	model := initial.Model()
	m := model.NumMachines()
	if m < 2 {
		return nil, fmt.Errorf("shardgossip: need at least 2 machines to form pairs, got %d", m)
	}
	if !initial.Complete() {
		return nil, fmt.Errorf("shardgossip: initial assignment must place every job")
	}
	shards := cfg.Shards
	if shards < 0 {
		return nil, fmt.Errorf("shardgossip: negative shard count %d (use 0 for the AutoShards heuristic)", shards)
	}
	if shards == 0 {
		shards = AutoShards(m)
	}
	if shards > m {
		return nil, fmt.Errorf("shardgossip: %d shards over %d machines (at most one shard per machine)", shards, m)
	}

	n := model.NumJobs()
	e := &Engine{
		proto:     p,
		model:     model,
		seed:      cfg.Seed,
		load:      make([]core.Cost, m),
		exchanges: make([]int, m),
		drawKick:  make(chan *schedule, 2),
		drawReady: make(chan *schedule, 2),
		drawGen:   rng.New(cfg.Seed), // reseeded per draw with DeriveSeed(seed, epoch)
		perm:      make([]int, m),
		shards:    make([]shardState, shards),
		metrics:   cfg.Metrics,
		spans:     cfg.Spans,
		timeline:  cfg.Timeline,
	}
	if cfg.Faults != nil && !cfg.Faults.Zero() {
		fs, err := newFaultState(*cfg.Faults, m)
		if err != nil {
			return nil, err
		}
		e.faults = fs
	}

	e.jobs = make([][]int, m)
	initial.FillOrderedLists(e.jobs, make([]int, n), p.ListOrder())
	for i := range e.load {
		e.load[i] = initial.Load(i)
	}
	e.reduceLoads()

	if e.spans != nil {
		e.runSpan = e.spans.NextID()
		e.slots = make([]span.Span, m/2)
	}
	e.self = e

	e.quit = make(chan struct{})
	if shards > 1 {
		e.start = make([]chan struct{}, shards)
		for s := 1; s < shards; s++ {
			e.start[s] = make(chan struct{}, 1)
			go e.worker(s)
		}
	}
	// Prime the pipeline: hand both buffers to the scheduler so epoch 0 is
	// drawn before the first StepEpoch and epoch 1 right behind it.
	go e.scheduler()
	for b := 0; b < 2; b++ {
		e.drawKick <- &schedule{
			pairI: make([]int32, m/2),
			pairJ: make([]int32, m/2),
		}
	}
	return e, nil
}

// Close stops the worker and scheduler goroutines. It is idempotent. The
// engine must not be stepped after Close.
func (e *Engine) Close() {
	if e.quit != nil && !e.closed {
		e.closed = true
		close(e.quit)
	}
}

// Observe registers an observer, notified once per epoch at the barrier
// with i = j = -1 (see gossip.Observer).
func (e *Engine) Observe(o gossip.Observer) { e.observers = append(e.observers, o) }

// Epochs returns the number of epochs executed so far.
func (e *Engine) Epochs() int { return e.epoch }

// Stable reports whether a Run's stability check has proved the placement
// pairwise-stable, enabling the bookkeeping-only session fast path.
func (e *Engine) Stable() bool { return e.stable }

// Steps implements gossip.Stepper: the number of pairwise sessions executed.
func (e *Engine) Steps() int { return e.sessions }

// Moves implements gossip.Stepper.
func (e *Engine) Moves() int { return e.moves }

// Makespan implements gossip.Stepper, served from the barrier-refreshed
// cache (exact between epochs, which is the only time the coordinator runs).
func (e *Engine) Makespan() core.Cost { return e.cachedMax }

// TotalLoad implements gossip.Stepper.
func (e *Engine) TotalLoad() int64 { return e.sumLoad }

// Machines implements gossip.Stepper.
func (e *Engine) Machines() int { return len(e.load) }

// Exchanges implements gossip.Stepper (live slice; copy to snapshot).
func (e *Engine) Exchanges() []int { return e.exchanges }

var _ gossip.Stepper = (*Engine)(nil)

// worker is the loop of worker s (s >= 1): when signalled, claim sessions
// until the epoch has none left, report through the epoch WaitGroup, exit on
// Close.
func (e *Engine) worker(s int) {
	for {
		select {
		case <-e.quit:
			return
		case <-e.start[s]:
			e.runSessions(s)
			e.wg.Done()
		}
	}
}

// scheduler is the pipelined-draw goroutine: it receives a free schedule
// buffer, fills it with the matching for the next undrawn epoch — a pure
// function of (seed, epoch) — and hands it back. Epochs are drawn in order
// starting at 0; the coordinator consumes them in order, so the draw for
// epoch k+1 overlaps the execution of epoch k.
func (e *Engine) scheduler() {
	for epoch := uint64(0); ; epoch++ {
		var b *schedule
		select {
		case <-e.quit:
			return
		case b = <-e.drawKick:
		}
		e.drawSchedule(b, epoch)
		e.drawReady <- b // cap 2 ≥ buffers in flight: never blocks
	}
}

// drawSchedule fills b with epoch's matching: session t pairs perm[2t] with
// perm[2t+1]. It allocates nothing.
//
//hetlb:noalloc
func (e *Engine) drawSchedule(b *schedule, epoch uint64) {
	e.drawGen.Reseed(rng.DeriveSeed(e.seed, epoch))
	e.drawGen.PermInto(e.perm)
	for t := range b.pairI {
		b.pairI[t] = int32(e.perm[2*t])
		b.pairJ[t] = int32(e.perm[2*t+1])
	}
}

// StepEpoch executes one epoch — ⌊m/2⌋ sessions on a (seed, epoch)-keyed
// random perfect matching (odd m leaves one machine idle per epoch) — and
// reports whether any session changed its pair's loads.
func (e *Engine) StepEpoch() bool {
	// Apply the fault plan's transitions first: the down-set is frozen for
	// the whole epoch, so every worker reads it without synchronization.
	if e.faults != nil {
		e.applyFaults()
	}
	// Take the pre-drawn schedule and immediately recycle the previous
	// buffer: the next epoch's draw proceeds concurrently with this one's
	// execution.
	sched := <-e.drawReady
	if e.cur != nil {
		e.drawKick <- e.cur
	}
	e.cur = sched
	for s := range e.shards {
		sh := &e.shards[s]
		sh.moves = 0
		sh.changed = 0
		sh.voided = 0
	}
	// The reset is ordered before every worker's first claim by the start
	// send below.
	e.next.Store(0)
	if e.start != nil {
		e.wg.Add(len(e.shards) - 1)
		for s := 1; s < len(e.shards); s++ {
			e.start[s] <- struct{}{}
		}
	}
	e.runSessions(0)
	// The wait orders every worker's load and tally writes before the
	// barrier's reads.
	e.wg.Wait()
	return e.barrier()
}

// runSessions is worker s's share of an epoch: it claims the next chunk of
// consecutive session indices and runs them on its own scratch, until the
// epoch has none left. Every worker runs it concurrently, the coordinator
// included, so the split follows who is free rather than a fixed
// assignment; results do not depend on it (see "Determinism argument").
//
//hetlb:noalloc
func (e *Engine) runSessions(s int) {
	n := int64(len(e.cur.pairI))
	// About eight chunks per worker and at least one session each: a
	// worker that starts late still finds work, and claims stay rare.
	chunk := max(1, n/int64(8*len(e.shards)))
	for {
		hi := e.next.Add(chunk)
		lo := hi - chunk
		if lo >= n {
			return
		}
		for t := lo; t < min(hi, n); t++ {
			e.session(s, int(t))
		}
	}
}

// session executes pair t of the current epoch on worker s: step the pair's
// sorted job lists on the worker's scratch (protocol.Step, whose sides come
// back sorted by entry), and when the step reports arrivals, write back both
// sides and the two loads the step left on the scratch. A session that
// moved nothing writes nothing. In steady state the only memory touched is
// the worker's scratch, the pair's job lists and, when spans are on, slot t;
// once the engine is verified stable, the step is skipped entirely (see
// package doc).
//
//hetlb:noalloc
func (e *Engine) session(s, t int) {
	sh := &e.shards[s]
	i, j := int(e.cur.pairI[t]), int(e.cur.pairJ[t])
	if fs := e.faults; fs != nil && (fs.down[i] || fs.down[j]) {
		// Voided: a pair touching a down machine skips the session entirely
		// for this epoch — no exchange, no kernel, no load write. The
		// down-set is fixed at the epoch's start, so the voided set is a
		// pure function of (schedule, plan, epoch) at any shard count.
		sh.voided++
		if e.slots != nil {
			e.slots[t] = span.Span{
				Parent: e.runSpan,
				Kind:   span.KindSession,
				Tag:    span.TagCrash,
				Flags:  span.FlagAborted,
				A:      int32(i),
				B:      int32(j),
				Start:  int64(e.sessions + t),
				End:    int64(e.sessions + t),
			}
		}
		return
	}
	e.exchanges[i]++
	e.exchanges[j]++
	if e.stable {
		// Verified-stable fast path: the kernel is provably a no-op, so
		// only the bookkeeping of a no-change session remains.
		if e.slots != nil {
			e.slots[t] = span.Span{
				Parent: e.runSpan,
				Kind:   span.KindSession,
				A:      int32(i),
				B:      int32(j),
				Start:  int64(e.sessions + t),
				End:    int64(e.sessions + t),
			}
		}
		return
	}

	sc := &sh.scratch
	l1, l2 := e.load[i], e.load[j]
	// The sides come back sorted by entry (the Protocol contract), so they
	// keep the job lists' invariant.
	toI, toJ := protocol.Step(e.proto, sc, i, j, e.jobs[i], e.jobs[j])
	moved := len(sc.Diff1) + len(sc.Diff2)
	changed := false
	if moved > 0 {
		// The step summed both machines' new loads as it placed the jobs.
		n1, n2 := sc.Load1, sc.Load2
		e.jobs[i] = append(e.jobs[i][:0], toI...)
		e.jobs[j] = append(e.jobs[j][:0], toJ...)
		e.load[i], e.load[j] = n1, n2
		if c := e.check; c != nil {
			c.Mark(i)
			c.Mark(j)
		}
		sh.moves += moved
		changed = n1 != l1 || n2 != l2
		if changed {
			sh.changed++
		}
	}
	if e.slots != nil {
		var fl span.Flags
		if changed {
			fl = span.FlagCommitted
		}
		e.slots[t] = span.Span{
			Parent: e.runSpan,
			Kind:   span.KindSession,
			Flags:  fl,
			A:      int32(i),
			B:      int32(j),
			Start:  int64(e.sessions + t),
			End:    int64(e.sessions + t),
			Value:  int64(moved),
		}
	}
}

// barrier closes the epoch on the coordinator: sum the workers' tallies in
// shard order, recompute Cmax and ΣC if a session changed a load, append
// the epoch's session records in index order, and notify metrics, timeline
// and observers.
func (e *Engine) barrier() bool {
	np := len(e.cur.pairI)
	if e.slots != nil {
		for _, s := range e.slots[:np] {
			e.spans.Append(s)
		}
	}
	moves, changed := 0, 0
	for s := range e.shards {
		moves += e.shards[s].moves
		changed += e.shards[s].changed
	}
	e.moves += moves
	e.sessions += np
	e.epoch++

	if changed == 0 {
		e.noChange += np
	} else {
		e.noChange = 0
		e.reduceLoads()
	}
	max, sum := e.cachedMax, e.sumLoad

	if e.faults != nil {
		voided := 0
		for s := range e.shards {
			voided += e.shards[s].voided
		}
		e.faults.voided += voided
		if e.metrics != nil && voided > 0 {
			e.metrics.Voided.Add(int64(voided))
		}
	}

	if e.metrics != nil {
		e.metrics.Epochs.Inc()
		e.metrics.Sessions.Add(int64(np))
		e.metrics.Changed.Add(int64(changed))
		if moves > 0 {
			e.metrics.Moves.Add(int64(moves))
		}
		e.metrics.Makespan.Set(int64(max))
		e.metrics.EpochMoves.Observe(int64(moves))
	}
	if e.timeline != nil {
		e.timeline.Record(timeline.Point{
			Time:      int64(e.sessions - 1),
			Cmax:      int64(max),
			Imbalance: int64(max) - sum/int64(len(e.load)),
			Moves:     int64(e.moves),
		})
	}
	for _, o := range e.observers {
		o.OnStep(e.self, e.sessions-1, -1, -1)
	}
	return changed > 0
}

// reduceLoads recomputes the cached Cmax and ΣC in one pass over the m
// loads. It runs on the coordinator between epochs only: in New, at the
// barrier of an epoch that changed a load, and after a LoseJobs crash of a
// loaded machine.
func (e *Engine) reduceLoads() {
	var max core.Cost
	var sum int64
	for _, l := range e.load {
		sum += int64(l)
		if l > max {
			max = l
		}
	}
	e.cachedMax, e.sumLoad = max, sum
}

// Snapshot materializes the current placement as a fresh core.Assignment
// over the engine's model. It is O(n) and independent of the shard count.
// Jobs lost to a LoseJobs crash are unassigned in the snapshot (use Lost
// for the ledger); fault-free snapshots are always complete.
func (e *Engine) Snapshot() *core.Assignment {
	machineOf := make([]int, e.model.NumJobs())
	for j := range machineOf {
		machineOf[j] = -1
	}
	for i := range e.jobs {
		for _, entry := range e.jobs[i] {
			machineOf[core.JobOf(entry)] = i
		}
	}
	a, err := core.FromMachineOf(e.model, machineOf)
	if err != nil {
		// Unreachable: the engine conserves the job set of its complete
		// initial assignment (minus the lost ledger, which FromMachineOf
		// leaves unassigned).
		panic(err)
	}
	return a
}

// checkStable proves or refutes pairwise stability of the current placement
// among the up machines: for every pair (i, j), the session's split of the
// merged union must reproduce the current sides exactly. The engine's
// checker answers as a full O(m²) scan would, but splits only the pairs it
// has not verified since their machines last changed (see
// protocol.Checker). On success the engine latches the verified-stable fast
// path — sound because a stable placement makes every future session a
// kernel no-op, so the state can never change again.
func (e *Engine) checkStable() bool {
	if e.stable {
		return true
	}
	if i, _ := e.unstablePair(); i != -1 {
		return false
	}
	e.stable = true
	return true
}

// unstablePair runs the engine's incremental check. Down machines are
// excluded: they participate in no session, so stability among the up
// machines is all a latch may rely on. Any later crash or recovery marks the
// machine and re-opens the latch (see applyFaults).
func (e *Engine) unstablePair() (int, int) {
	if e.check == nil {
		e.check = protocol.NewChecker(len(e.load), e.proto)
	}
	var down []bool
	if e.faults != nil {
		down = e.faults.down
	}
	return e.check.Check(e.jobs, down)
}

// Result summarizes a Run.
type Result struct {
	// Assignment is the final placement (a snapshot; the engine can keep
	// stepping afterwards).
	Assignment *core.Assignment
	// Epochs and Steps count epochs and pairwise sessions executed across
	// the engine's lifetime.
	Epochs int
	Steps  int
	// Converged is true if the run stopped at a verified stable schedule
	// (stability is checked among the up machines only when a fault plan is
	// armed).
	Converged bool
	// FinalMakespan is Cmax when the run stopped.
	FinalMakespan core.Cost
	// Crashes, Recoveries, JobsLost, JobsRehosted and Voided summarize the
	// armed fault plan's effect across the engine's lifetime (all zero
	// without one): transitions applied, jobs lost / re-hosted, and sessions
	// voided because a participant was down.
	Crashes, Recoveries    int
	JobsLost, JobsRehosted int
	Voided                 int
}

// Run executes whole epochs until at least maxSessions sessions have run
// (the session budget of gossip.Engine.Run; the last epoch may overshoot by
// less than one epoch's worth). If detectStability is true the run stops
// early once the schedule is provably stable: after every window of quiet
// sessions, the stability check runs (incremental, see checkStable; on
// success it latches the verified-stable session fast path for any further
// stepping).
func (e *Engine) Run(maxSessions int, detectStability bool) Result {
	m := len(e.load)
	startSessions := e.sessions
	window := 2 * m
	if window < 8 {
		window = 8
	}
	for e.sessions-startSessions < maxSessions {
		e.StepEpoch()
		if detectStability && e.noChange >= window {
			e.noChange = 0
			if e.checkStable() {
				a := e.Snapshot()
				e.closeRunSpan(startSessions, true)
				return e.makeResult(a, true)
			}
		}
	}
	a := e.Snapshot()
	converged := false
	if detectStability {
		converged = e.checkStable()
	}
	e.closeRunSpan(startSessions, converged)
	return e.makeResult(a, converged)
}

// makeResult assembles a Run's Result, folding in the fault plan's
// degradation counters when one is armed.
func (e *Engine) makeResult(a *core.Assignment, converged bool) Result {
	r := Result{Assignment: a, Epochs: e.epoch, Steps: e.sessions, Converged: converged, FinalMakespan: e.cachedMax}
	if fs := e.faults; fs != nil {
		r.Crashes, r.Recoveries = fs.crashes, fs.recoveries
		r.JobsLost, r.JobsRehosted = fs.jobsLost, fs.jobsRehosted
		r.Voided = fs.voided
	}
	return r
}

// closeRunSpan appends the run span's close record, mirroring
// gossip.Engine.closeRunSpan; the sessions' records reached the recorder at
// their epochs' barriers.
func (e *Engine) closeRunSpan(startSessions int, converged bool) {
	if e.spans == nil {
		return
	}
	var fl span.Flags
	if converged {
		fl = span.FlagCommitted
	}
	e.spans.Append(span.Span{
		ID:     e.runSpan,
		Parent: e.spans.Root(),
		Kind:   span.KindRun,
		Flags:  fl,
		A:      -1,
		B:      -1,
		Start:  int64(startSessions),
		End:    int64(e.sessions),
		Value:  int64(e.cachedMax),
	})
}
