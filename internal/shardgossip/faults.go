// Fault support for the sharded epoch engine: the crash/recovery schedules
// of internal/faults replayed at epoch granularity.
//
// # Virtual time and the down-set
//
// The engine's virtual time is the epoch index: a Crash{At: k} takes effect
// before epoch k executes, and Recovery at r brings the machine back before
// epoch r — the machine is down for exactly the epochs in [At, RecoverAt),
// matching faults.Config.DownAt. All transitions are applied by the
// coordinator between epochs (applyFaults at the top of StepEpoch), so the
// down-set is frozen for the whole epoch and every worker reads it without
// synchronization.
//
// # Determinism
//
// The schedule draw is untouched: epoch k's matching remains a pure function
// of DeriveSeed(seed, k). Faults only *filter* it — a pair touching a down
// machine is voided for that epoch (no exchange, no kernel, no load write).
// The voided set is a pure function of (schedule, fault plan, epoch), so
// faulted runs stay bit-identical at any shard count and GOMAXPROCS, exactly
// like fault-free ones.
//
// # Crash semantics
//
// A crash with LoseJobs freezes nothing: the machine's jobs move to the lost
// ledger, its load drops to zero, and if it held any load the coordinator
// recomputes Cmax and ΣC on the spot (reduceLoads). Without LoseJobs the
// jobs freeze with the machine — they stay in its list and its load stays
// in the aggregates, so Cmax keeps counting frozen work, mirroring netsim —
// and are re-hosted in place on recovery. Every transition resets the quiet
// counter: a recovery brings frozen work back into play and a crash removes
// a participant from every future matching, so a previously proven
// stability no longer holds. Every transition also marks its machine for
// the incremental stability check: the check skips the pairs of a down
// machine, so they were never verified and must be split again once the
// machine is back.
package shardgossip

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/obs/span"
)

// LostJob is one job permanently removed by a LoseJobs crash: which job,
// which machine held it, and the epoch the crash was applied before.
type LostJob struct {
	Job     int
	Machine int
	Epoch   int
}

// faultEvent is one scheduled transition at epoch granularity, applied when
// virtual time (the index of the epoch about to execute) reaches at.
type faultEvent struct {
	at      int64
	machine int32
	recover bool
	lose    bool // crash events only: jobs are lost, not frozen
}

// faultState is the engine's dynamic crash state. nil on a fault-free
// engine, so the only cost an unarmed run pays is one nil-check branch per
// session.
type faultState struct {
	cfg    faults.Config
	events []faultEvent // sorted by (at, machine); consumed in order
	next   int

	//hetlb:frozen
	down      []bool // read-only during an epoch; written between epochs
	downCount int
	frozen    []int32 // frozen[x] = jobs frozen on down machine x

	lost         []LostJob
	crashes      int
	recoveries   int
	jobsLost     int
	jobsRehosted int
	voided       int // sessions voided across the engine's lifetime
}

// newFaultState validates and compiles a fault plan for m machines.
func newFaultState(cfg faults.Config, m int) (*faultState, error) {
	if !cfg.MessageFree() {
		return nil, fmt.Errorf("shardgossip: fault plan injects message faults (drop/dup/jitter); the epoch engine exchanges no messages, only crash schedules apply")
	}
	if err := cfg.Validate(m); err != nil {
		return nil, err
	}
	fs := &faultState{
		cfg:    cfg,
		down:   make([]bool, m),
		frozen: make([]int32, m),
	}
	for _, cr := range cfg.Crashes {
		fs.events = append(fs.events, faultEvent{at: cr.At, machine: int32(cr.Machine), lose: cr.LoseJobs})
		if cr.RecoverAt != 0 {
			fs.events = append(fs.events, faultEvent{at: cr.RecoverAt, machine: int32(cr.Machine), recover: true})
		}
	}
	sort.Slice(fs.events, func(a, b int) bool {
		ea, eb := fs.events[a], fs.events[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.machine != eb.machine {
			return ea.machine < eb.machine
		}
		// Validation forbids a same-machine same-instant recover+crash; the
		// tiebreak only fixes a total order for determinism's sake.
		return ea.recover && !eb.recover
	})
	return fs, nil
}

// applyFaults applies every scheduled transition up to and including the
// epoch about to execute. Runs on the coordinator between epochs: no worker
// is live, so state is written without locks.
func (e *Engine) applyFaults() {
	fs := e.faults
	now := int64(e.epoch)
	fired := false
	for fs.next < len(fs.events) && fs.events[fs.next].at <= now {
		ev := fs.events[fs.next]
		fs.next++
		fired = true
		if ev.recover {
			e.recoverMachine(ev)
		} else {
			e.crashMachine(ev)
		}
		// Any transition invalidates a proven stability. It also marks the
		// machine for the stability checker: while it was down its pairs
		// were skipped, not verified.
		e.noChange = 0
		if e.check != nil {
			e.check.Mark(int(ev.machine))
		}
	}
	if fired && e.metrics != nil {
		e.metrics.Down.Set(int64(fs.downCount))
	}
}

// crashMachine takes machine ev.machine down, losing or freezing its jobs
// per the plan's loss policy.
func (e *Engine) crashMachine(ev faultEvent) {
	fs := e.faults
	x := int(ev.machine)
	fs.down[x] = true
	fs.downCount++
	fs.crashes++
	affected := len(e.jobs[x])
	if ev.lose {
		// The ledger lists a crash's jobs in increasing job order, whatever
		// order the engine keeps the machine's list in.
		first := len(fs.lost)
		for _, entry := range e.jobs[x] {
			fs.lost = append(fs.lost, LostJob{Job: core.JobOf(entry), Machine: x, Epoch: e.epoch})
		}
		slices.SortFunc(fs.lost[first:], func(a, b LostJob) int { return cmp.Compare(a.Job, b.Job) })
		fs.jobsLost += affected
		e.jobs[x] = e.jobs[x][:0]
		if e.load[x] > 0 {
			e.load[x] = 0
			e.reduceLoads()
		}
	} else {
		fs.frozen[x] = int32(affected)
	}
	if e.metrics != nil {
		e.metrics.Crashes.Inc()
		if ev.lose && affected > 0 {
			e.metrics.JobsLost.Add(int64(affected))
		}
	}
	if e.spans != nil {
		e.spans.Append(span.Span{
			Parent: e.runSpan,
			Kind:   span.KindFault,
			Tag:    span.TagCrash,
			Flags:  span.FlagCrashed,
			A:      ev.machine,
			B:      -1,
			Start:  int64(e.sessions),
			End:    int64(e.sessions),
			Value:  int64(affected),
		})
	}
}

// recoverMachine brings machine ev.machine back; jobs frozen by a
// non-losing crash are re-hosted in place (their loads never left the
// aggregates).
func (e *Engine) recoverMachine(ev faultEvent) {
	fs := e.faults
	x := int(ev.machine)
	fs.down[x] = false
	fs.downCount--
	fs.recoveries++
	rehosted := int(fs.frozen[x])
	fs.jobsRehosted += rehosted
	fs.frozen[x] = 0
	if e.metrics != nil {
		e.metrics.Recoveries.Inc()
		if rehosted > 0 {
			e.metrics.JobsRehosted.Add(int64(rehosted))
		}
	}
	if e.spans != nil {
		e.spans.Append(span.Span{
			Parent: e.runSpan,
			Kind:   span.KindFault,
			Tag:    span.TagRecover,
			A:      ev.machine,
			B:      -1,
			Start:  int64(e.sessions),
			End:    int64(e.sessions),
			Value:  int64(rehosted),
		})
	}
}

// Down reports whether machine x is currently down under the armed fault
// plan (always false without one).
func (e *Engine) Down(x int) bool {
	return e.faults != nil && e.faults.down[x]
}

// DownMachines returns how many machines are currently down.
func (e *Engine) DownMachines() int {
	if e.faults == nil {
		return 0
	}
	return e.faults.downCount
}

// Lost returns a copy of the lost-jobs ledger, in the order the losses
// occurred.
func (e *Engine) Lost() []LostJob {
	if e.faults == nil {
		return nil
	}
	return append([]LostJob(nil), e.faults.lost...)
}

// Voided returns the number of sessions voided so far because a participant
// was down.
func (e *Engine) Voided() int {
	if e.faults == nil {
		return 0
	}
	return e.faults.voided
}

// ValidateConservation checks the engine's global invariants after (or
// during) a faulted run: every job of the model is either placed on exactly
// one machine or recorded exactly once in the lost ledger; every cached
// load and the cached Cmax and ΣC match a recomputation from job costs; and
// the dynamic down-set matches the plan's DownAt at the engine's current
// virtual time. Call it between epochs (it reads coordinator-owned state).
// It is the sharded counterpart of netsim's conservation invariant and is
// O(n + m).
func (e *Engine) ValidateConservation() error {
	n := e.model.NumJobs()
	m := len(e.load)
	const (
		unseen = iota
		placed
		lostMark
	)
	seen := make([]int8, n)
	for i := 0; i < m; i++ {
		var sum core.Cost
		for _, entry := range e.jobs[i] {
			j := core.JobOf(entry)
			if entry < 0 || j >= n {
				return fmt.Errorf("shardgossip: machine %d lists invalid job entry %d", i, entry)
			}
			if seen[j] != unseen {
				return fmt.Errorf("shardgossip: job %d placed on more than one machine", j)
			}
			seen[j] = placed
			sum += e.model.Cost(i, j)
		}
		if sum != e.load[i] {
			return fmt.Errorf("shardgossip: machine %d cached load %d != recomputed %d", i, e.load[i], sum)
		}
	}
	if e.faults != nil {
		for _, lj := range e.faults.lost {
			switch seen[lj.Job] {
			case placed:
				return fmt.Errorf("shardgossip: job %d both placed and in the lost ledger", lj.Job)
			case lostMark:
				return fmt.Errorf("shardgossip: job %d recorded lost twice", lj.Job)
			}
			seen[lj.Job] = lostMark
		}
	}
	for j := 0; j < n; j++ {
		if seen[j] == unseen {
			return fmt.Errorf("shardgossip: job %d neither placed nor in the lost ledger", j)
		}
	}
	var sum int64
	var max core.Cost
	for _, l := range e.load {
		sum += int64(l)
		if l > max {
			max = l
		}
	}
	if sum != e.sumLoad {
		return fmt.Errorf("shardgossip: cached total load %d != recomputed %d", e.sumLoad, sum)
	}
	if max != e.cachedMax {
		return fmt.Errorf("shardgossip: cached makespan %d != recomputed %d", e.cachedMax, max)
	}
	if e.faults != nil && e.epoch > 0 {
		// applyFaults last ran with virtual time e.epoch-1 (the top of the
		// last executed epoch), so the dynamic down-set must equal the plan's
		// schedule evaluated there.
		now := int64(e.epoch - 1)
		for x := 0; x < m; x++ {
			if want := e.faults.cfg.DownAt(x, now); e.faults.down[x] != want {
				return fmt.Errorf("shardgossip: machine %d down=%v but the plan says %v at epoch %d", x, e.faults.down[x], want, now)
			}
		}
	}
	return nil
}
