// Package gossip is the sequential simulation engine for the decentralized
// protocols: at each step an initiator machine is selected, it picks a random
// peer, and the pair is balanced with the protocol's kernel. This serializes
// the asynchronous gossip of the paper's simulator into a reproducible
// sequence of pairwise exchanges, which is how the paper itself counts
// "iterations" (Figures 4 and 5).
//
// The engine steps the way a sharded session does. It keeps one sorted job
// list per machine, in the protocol's ListOrder, built once by New; a step
// runs protocol.Step on the pair's two lists and moves only the arrivals it
// reports in the live assignment, so the assignment, loads and observers see
// every step as it happens.
//
// The engine is deliberately decoupled from what is measured: observers
// receive every step and can record makespan trajectories, threshold
// crossings or exchange counts (the Figure 4 and Figure 5 probes in
// internal/experiments). internal/shardgossip runs the same step in
// parallel on a per-epoch matching schedule, and internal/netsim runs it as
// a message-passing handshake.
package gossip

import (
	"hetlb/internal/core"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
)

// Selection chooses the pair of machines balanced at each step.
type Selection interface {
	// Name identifies the policy in benchmark output.
	Name() string
	// Pair returns two distinct machines among m.
	Pair(gen *rng.RNG, m int) (int, int)
}

// UniformInitiator models the paper's loop most directly: the initiator is
// uniform over machines (every machine runs the same loop at the same rate)
// and the target is uniform over the other machines.
type UniformInitiator struct{}

// Name implements Selection.
func (UniformInitiator) Name() string { return "uniform-initiator" }

// Pair implements Selection.
func (UniformInitiator) Pair(gen *rng.RNG, m int) (int, int) {
	i := gen.Intn(m)
	return i, gen.Pick(m, i)
}

// Sweep is a deterministic ablation policy: initiators advance round-robin
// while targets stay uniform. It removes initiator variance and is used to
// measure how much of the convergence speed is due to selection randomness.
type Sweep struct{ next int }

// Name implements Selection.
func (*Sweep) Name() string { return "sweep" }

// Pair implements Selection.
func (s *Sweep) Pair(gen *rng.RNG, m int) (int, int) {
	i := s.next % m
	// Advance modulo m so the counter never overflows, no matter how long
	// the run (and so a Sweep reused across machine counts stays in range).
	s.next = (i + 1) % m
	return i, gen.Pick(m, i)
}

// Observer receives a notification after every balancing step.
type Observer interface {
	// OnStep is called after step number step (0-based) balanced machines
	// i and j; e exposes the engine's incremental read surface. The sharded
	// engine notifies once per epoch barrier with i = j = -1 (an epoch
	// balances many pairs at once, so no single pair describes it); step is
	// then the index of the epoch's last session.
	OnStep(e Stepper, step, i, j int)
}

// Metrics bundles the engine-internal obs instruments. All fields are
// registered by NewMetrics; a nil *Metrics disables instrumentation with a
// single branch per step.
type Metrics struct {
	// Steps counts balancing steps; Moves counts job migrations; Changed
	// counts steps whose pair loads changed.
	Steps, Moves, Changed *obs.Counter
	// Makespan tracks the current Cmax after every step.
	Makespan *obs.Gauge
	// StepMoves is the distribution of migrations per step.
	StepMoves *obs.Histogram
}

// NewMetrics registers the engine's instruments on a registry (idempotent:
// repeated calls on the same registry share the same counters).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Steps:     r.Counter("gossip_steps_total", "pairwise balancing steps executed"),
		Moves:     r.Counter("gossip_moves_total", "job migrations across all steps"),
		Changed:   r.Counter("gossip_changed_steps_total", "steps whose pair loads changed"),
		Makespan:  r.Gauge("gossip_makespan", "current Cmax of the schedule"),
		StepMoves: r.Histogram("gossip_step_moves", "jobs migrated per balancing step", obs.Pow2Bounds(8)),
	}
}

// Engine drives one simulation run.
type Engine struct {
	proto     protocol.Protocol
	a         *core.Assignment
	gen       *rng.RNG
	selection Selection
	observers []Observer
	metrics   *Metrics
	spans     *span.Recorder
	timeline  *timeline.Recorder
	// runSpan is the engine's root span, allocated eagerly in New (its close
	// record is appended by Run). All step spans parent to it.
	runSpan span.ID
	// self is the engine pre-boxed as a Stepper, so notifying observers on
	// the //hetlb:noalloc step path passes an existing interface value
	// instead of boxing *Engine at every call site.
	self Stepper
	// sumLoad is the total load across machines, maintained incrementally (a
	// step changes only the pair) so timeline imbalance needs no O(m) scan.
	sumLoad int64

	exchanges []int // per-machine count of balancing participations
	steps     int
	moves     int // total job migrations across all steps
	// jobs[i] is machine i's job list, sorted entries in the protocol's
	// ListOrder (see protocol.Protocol), built by New and rewritten by every
	// step that moves a job of machine i.
	jobs [][]int
	// scratch backs the allocation-free step path; buffers grow to their
	// high-water marks during the first steps and are reused thereafter.
	scratch pairwise.Scratch
	// noChange counts consecutive steps whose pair loads were unchanged;
	// it gates the stability check.
	noChange int
	// check is the incremental stability checker on the engine's step,
	// protocol.Step, built by the first UnstablePair call; from then on
	// Step marks the pair of every step that moved a job. The first check
	// scans every pair, so the steps before it need no marks, and a run that
	// never checks never builds it.
	check *protocol.Checker
	// cachedMax caches the makespan between steps: a step only touches two
	// machines, so the maximum is maintained incrementally and the O(m)
	// rescan happens lazily, only after the top machine loses its top spot.
	cachedMax core.Cost
	maxValid  bool
}

// Config parameterizes New.
type Config struct {
	// Seed seeds the engine's generator.
	Seed uint64
	// Selection defaults to UniformInitiator.
	Selection Selection
	// Metrics, when non-nil, receives engine-internal counters every step
	// (build one with NewMetrics).
	Metrics *Metrics
	// Spans, when non-nil, receives one KindStep span per balancing step
	// (A/B the pair, Start = End = step index, Value = jobs moved), all
	// parented to a KindRun span that Run closes. Times are logical (step
	// indices), never wall clock.
	Spans *span.Recorder
	// Timeline, when non-nil, receives one convergence point per step:
	// Time = step index, Cmax, Imbalance = Cmax − mean load, cumulative
	// Moves; Messages is 0 (the sequential engine sends none).
	Timeline *timeline.Recorder
}

// New builds an engine around a protocol and an initial assignment. The
// assignment is mutated in place by Run/Step; the engine's job lists are
// built from it here, so it must not be mutated by anything else afterwards.
func New(p protocol.Protocol, a *core.Assignment, cfg Config) *Engine {
	sel := cfg.Selection
	if sel == nil {
		sel = UniformInitiator{}
	}
	e := &Engine{
		proto:     p,
		a:         a,
		gen:       rng.New(cfg.Seed),
		selection: sel,
		metrics:   cfg.Metrics,
		spans:     cfg.Spans,
		timeline:  cfg.Timeline,
		exchanges: make([]int, a.Model().NumMachines()),
		jobs:      make([][]int, a.Model().NumMachines()),
	}
	a.FillOrderedLists(e.jobs, make([]int, a.NumAssigned()), p.ListOrder())
	for i := 0; i < a.Model().NumMachines(); i++ {
		e.sumLoad += int64(a.Load(i))
	}
	if e.spans != nil {
		e.runSpan = e.spans.NextID()
	}
	e.self = e
	return e
}

// Observe registers an observer.
func (e *Engine) Observe(o Observer) { e.observers = append(e.observers, o) }

// Assignment returns the live assignment.
func (e *Engine) Assignment() *core.Assignment { return e.a }

// Exchanges returns the per-machine balancing participation counts (live
// slice; callers must copy to snapshot).
func (e *Engine) Exchanges() []int { return e.exchanges }

// Steps returns the number of steps executed so far.
func (e *Engine) Steps() int { return e.steps }

// Moves returns the total number of job migrations so far — the "amount of
// tasks exchanged" the paper's conclusion asks to minimize. A job moved in
// k different steps counts k times (it would cross the network each time).
func (e *Engine) Moves() int { return e.moves }

// Step performs one pairwise balancing, protocol.Step on the pair's two job
// lists, moves the arrivals it reports, and reports whether the pair's loads
// changed (a cheap proxy for "the schedule changed" used to pace stability
// checks; the check itself is UnstablePair).
//
//hetlb:noalloc
func (e *Engine) Step() bool {
	m := e.a.Model().NumMachines()
	i, j := e.selection.Pair(e.gen, m)
	l1, l2 := e.a.Load(i), e.a.Load(j)
	sc := &e.scratch
	// The sides come back sorted by entry (the Protocol contract), so they
	// keep the lists' invariant; the arrivals on each side are the moves.
	toI, toJ := protocol.Step(e.proto, sc, i, j, e.jobs[i], e.jobs[j])
	moved := len(sc.Diff1) + len(sc.Diff2)
	if moved > 0 {
		for _, entry := range sc.Diff1 {
			e.a.Move(core.JobOf(entry), i)
		}
		for _, entry := range sc.Diff2 {
			e.a.Move(core.JobOf(entry), j)
		}
		e.jobs[i] = append(e.jobs[i][:0], toI...)
		e.jobs[j] = append(e.jobs[j][:0], toJ...)
		if e.check != nil {
			e.check.Mark(i)
			e.check.Mark(j)
		}
	}
	e.moves += moved
	e.exchanges[i]++
	e.exchanges[j]++
	n1, n2 := e.a.Load(i), e.a.Load(j)
	changed := n1 != l1 || n2 != l2
	e.sumLoad += int64(n1) + int64(n2) - int64(l1) - int64(l2)
	if changed {
		e.noChange = 0
	} else {
		e.noChange++
	}
	// Maintain the makespan cache: only machines i and j changed load. If
	// either rose to (or above) the cached maximum it is the new maximum;
	// otherwise, if a pair machine may have held the maximum and dropped,
	// the maximum could now be anywhere — invalidate and rescan lazily.
	if e.maxValid && changed {
		hi := n1
		if n2 > hi {
			hi = n2
		}
		if hi >= e.cachedMax {
			e.cachedMax = hi
		} else if l1 >= e.cachedMax || l2 >= e.cachedMax {
			e.maxValid = false
		}
	}
	step := e.steps
	e.steps++
	if e.metrics != nil {
		e.metrics.Steps.Inc()
		if moved > 0 {
			e.metrics.Moves.Add(int64(moved))
		}
		if changed {
			e.metrics.Changed.Inc()
		}
		e.metrics.StepMoves.Observe(int64(moved))
		e.metrics.Makespan.Set(int64(e.Makespan()))
	}
	if e.spans != nil {
		var fl span.Flags
		if changed {
			fl = span.FlagCommitted
		}
		e.spans.Append(span.Span{
			Parent: e.runSpan,
			Kind:   span.KindStep,
			Flags:  fl,
			A:      int32(i),
			B:      int32(j),
			Start:  int64(step),
			End:    int64(step),
			Value:  int64(moved),
		})
	}
	if e.timeline != nil {
		cmax := int64(e.Makespan())
		e.timeline.Record(timeline.Point{
			Time:      int64(step),
			Cmax:      cmax,
			Imbalance: cmax - e.sumLoad/int64(m),
			Moves:     int64(e.moves),
		})
	}
	for _, o := range e.observers {
		o.OnStep(e.self, step, i, j)
	}
	return changed
}

// Makespan returns the current Cmax of the schedule, served from the
// engine's incremental cache (amortized O(1) per step versus the O(m) scan
// of Assignment.Makespan). Like the engine's job lists, the cache assumes
// the assignment is mutated only through Step.
func (e *Engine) Makespan() core.Cost {
	if !e.maxValid {
		e.cachedMax = e.a.Makespan()
		e.maxValid = true
	}
	return e.cachedMax
}

// TotalLoad returns the sum of all machine loads, maintained incrementally
// by Step. It is the numerator of the mean load that the timeline's
// imbalance column subtracts from Cmax.
func (e *Engine) TotalLoad() int64 { return e.sumLoad }

// Result summarizes a Run.
type Result struct {
	// Steps is the number of pairwise balancing operations executed.
	Steps int
	// Converged is true if the run stopped at a verified stable schedule.
	Converged bool
	// FinalMakespan is Cmax of the assignment when the run stopped.
	FinalMakespan core.Cost
}

// UnstablePair returns the first pair of machines, in the scan order of
// protocol.UnstablePair, whose balancing step would change the assignment,
// or (-1, -1) if the assignment is stable. The answer is always that of a
// full scan, but the engine's checker reads the engine's own job lists and
// only steps the pairs that an earlier call has not verified since Step
// last moved a job of theirs. Like the Makespan cache it assumes that only
// Step mutates the assignment.
func (e *Engine) UnstablePair() (int, int) {
	if e.check == nil {
		e.check = protocol.NewChecker(len(e.jobs), e.proto)
	}
	return e.check.Check(e.jobs, nil)
}

// Run executes up to maxSteps balancing steps. If detectStability is true,
// the run stops early once the schedule is provably stable: after every
// window of steps with no observed load change, UnstablePair checks the
// schedule. DLB2C runs on adversarial instances may never converge
// (Proposition 8); maxSteps bounds those.
func (e *Engine) Run(maxSteps int, detectStability bool) Result {
	m := e.a.Model().NumMachines()
	startStep := e.steps
	// A full sweep's worth of quiet steps before paying for a full check.
	window := 2 * m
	if window < 8 {
		window = 8
	}
	for s := 0; s < maxSteps; s++ {
		e.Step()
		if detectStability && e.noChange >= window {
			e.noChange = 0
			if i, _ := e.UnstablePair(); i == -1 {
				e.closeRunSpan(startStep, true)
				return Result{Steps: e.steps, Converged: true, FinalMakespan: e.Makespan()}
			}
		}
	}
	converged := false
	if detectStability {
		i, _ := e.UnstablePair()
		converged = i == -1
	}
	e.closeRunSpan(startStep, converged)
	return Result{Steps: e.steps, Converged: converged, FinalMakespan: e.Makespan()}
}

// closeRunSpan appends the run span's close record (Start/End in step
// indices, Value = final Cmax, FlagCommitted when the run converged). Each
// Run call on the same engine appends another record for the same ID;
// consumers see the latest extent.
func (e *Engine) closeRunSpan(startStep int, converged bool) {
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
		Start:  int64(startStep),
		End:    int64(e.steps),
		Value:  int64(e.Makespan()),
	})
}
