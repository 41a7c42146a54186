package main

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"hetlb"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/shardgossip"
)

// layer indexes the self-time accumulators of a traced run. Each is the wall
// time of the public calls into one layer, timed from the benchmark.
type layer int

const (
	layerNew      layer = iota // shardgossip.New and Engine.Close
	layerStep                  // Engine.StepEpoch
	layerCheck                 // stable: Engine.Run's time beyond its epochs (stability checks, final snapshot)
	layerSnapshot              // the final Engine.Snapshot (or Run(0, false))
	layerClone                 // replicate: Assignment.Clone of the initial placement
	layerRef                   // replicate: CLB2C inside each replication
	layerGossip                // replicate: the sequential hetlb.DLB2C run
	numLayers
)

// layerNames name each layer's self time per traced unit, in seconds.
var layerNames = [numLayers]string{
	"shardgossip.new_s",
	"shardgossip.step_s",
	"shardgossip.check_s",
	"shardgossip.snapshot_s",
	"core.clone_s",
	"central.clb2c_s",
	"gossip.run_s",
}

// The sampled replay visits at most this many epochs per run and at most
// this many sessions per epoch.
const (
	maxReplayEpochs   = 64
	maxReplaySessions = 1 << 14
)

// countingProtocol counts an engine's kernel calls. Sessions and stability
// checks both split through SplitScratch, so two engines that execute the
// same epochs differ in calls by the pairs their checks scanned.
type countingProtocol struct {
	protocol.Protocol
	calls atomic.Int64
}

func (p *countingProtocol) SplitScratch(s *pairwise.Scratch, i, j int, jobs []int) ([]int, []int) {
	p.calls.Add(1)
	return p.Protocol.SplitScratch(s, i, j, jobs)
}

// tracer accumulates a traced run: layer self times, per-epoch step times,
// stability-check work, fault counters and the replayed session samples.
type tracer struct {
	timer time.Duration // cost of an empty timed call, subtracted from replay samples

	layers  [numLayers]time.Duration
	workers int // goroutines the layer times are summed over: 1, or the harness parallelism

	units     int
	unitAside time.Duration // measurement inside the current unit that is not the unit: replays, the stable twin
	wall      time.Duration // traced unit wall, set-aside time excluded
	untraced  time.Duration // the paired untraced units
	unitWalls []float64

	epochs, quietEpochs      int
	checkPairs               int64 // kernel calls made by stability checks
	converged                int
	unitEpochs, unitPairs    []float64
	markEpochs               int
	markPairs                int64
	stepMs                   []float64 // one sample per StepEpoch
	sampledStep              time.Duration
	replayWork               float64 // estimated ns of session work in the replayed epochs
	replayMismatch           int
	harnessWall, harnessBusy time.Duration
	repMs, gossipMs          []float64 // one sample per replication body / its DLB2C run

	sessions                                int
	crashes, jobsLost, jobsRehosted, voided int

	replayEpochs, replaySessions          int
	merge, split, sorts, diff             []float64
	unionJobs, replayMoves, replayChanged int

	allocMB, gcCycles, gcPauseMs float64
}

func newTracer() *tracer {
	return &tracer{timer: emptyTimer(), workers: 1}
}

// emptyTimer measures the median cost of two back-to-back clock reads, the
// overhead every replay sample carries.
func emptyTimer() time.Duration {
	s := make([]float64, 4096)
	for i := range s {
		t0 := time.Now()
		s[i] = float64(time.Now().Sub(t0))
	}
	return time.Duration(median(s))
}

// net is a replay sample with the timer overhead removed.
func (tr *tracer) net(d time.Duration) float64 {
	return float64(max(d-tr.timer, 0))
}

func (tr *tracer) beginUnit() {
	tr.unitAside = 0
	tr.markEpochs, tr.markPairs = tr.epochs, tr.checkPairs
}

// endUnit closes a traced unit: wall is its measured wall time, untraced the
// time of the same unit run with tracing off just before.
func (tr *tracer) endUnit(wall, untraced time.Duration, before, after *runtime.MemStats, o outcome) {
	w := wall - tr.unitAside
	tr.units++
	tr.wall += w
	tr.untraced += untraced
	tr.unitWalls = append(tr.unitWalls, w.Seconds())
	tr.unitEpochs = append(tr.unitEpochs, float64(tr.epochs-tr.markEpochs))
	tr.unitPairs = append(tr.unitPairs, float64(tr.checkPairs-tr.markPairs))
	tr.sessions += o.sessions
	if o.converged {
		tr.converged++
	}
	tr.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	tr.gcCycles += float64(after.NumGC - before.NumGC)
	tr.gcPauseMs += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

func (tr *tracer) newEngine(p protocol.Protocol, a *hetlb.Assignment, cfg shardgossip.Config) (*shardgossip.Engine, error) {
	var e *shardgossip.Engine
	var err error
	timeInto(&tr.layers[layerNew], func() { e, err = shardgossip.New(p, a, cfg) })
	return e, err
}

func (tr *tracer) close(e *shardgossip.Engine) { timeInto(&tr.layers[layerNew], e.Close) }

// stepEpoch replays the coming epoch's sessions when it is sampled, then
// times the epoch itself. A fully replayed epoch must move exactly the jobs
// the engine moves; a mismatch fails the traced run.
func (tr *tracer) stepEpoch(e *shardgossip.Engine, rp *replayer) {
	t0 := time.Now()
	sampled := rp.next(e)
	t1 := time.Now()
	tr.unitAside += t1.Sub(t0)
	before := e.Moves()
	changed := e.StepEpoch()
	d := time.Since(t1)
	tr.layers[layerStep] += d
	tr.stepMs = append(tr.stepMs, float64(d)/1e6)
	tr.epochs++
	if !changed {
		tr.quietEpochs++
	}
	if sampled {
		tr.sampledStep += d
		tr.replayWork += rp.work
		if rp.full && int64(e.Moves()-before) != rp.moves {
			tr.replayMismatch++
		}
	}
}

// replayer re-executes sampled sessions outside the engine: the jobs per
// machine come from a snapshot taken before the epoch, the pairs from
// shardgossip.MatchingSelection (the engine's own schedule), and each session
// step the engine runs — merge, kernel split, sort, diff — is timed alone.
type replayer struct {
	tr    *tracer
	proto protocol.Protocol
	sel   *shardgossip.MatchingSelection
	m     int
	plan  *hetlb.FaultConfig
	epoch int64
	pairs []int
	sc    pairwise.Scratch

	counts  []int
	backing []int
	lists   [][]int

	// The last replayed epoch: moves replayed, whether every session was
	// replayed, and the session work scaled to the whole epoch.
	moves int64
	full  bool
	work  float64
}

func (tr *tracer) replayer(p protocol.Protocol, seed uint64, m int, plan *hetlb.FaultConfig) *replayer {
	return &replayer{tr: tr, proto: p, sel: shardgossip.NewMatchingSelection(seed, m), m: m, plan: plan}
}

// draw advances the selection by one epoch. Every epoch is drawn, sampled or
// not, to keep the selection in step with the engine.
func (rp *replayer) draw() int64 {
	rp.pairs = rp.pairs[:0]
	for t := 0; t < rp.m/2; t++ {
		i, j := rp.sel.Pair(nil, rp.m)
		rp.pairs = append(rp.pairs, i, j)
	}
	ep := rp.epoch
	rp.epoch++
	return ep
}

// next draws the epoch about to execute and replays it when sampled: the
// first four epochs and every power of two, until the run's epoch budget is
// spent. It reports whether it replayed.
func (rp *replayer) next(e *shardgossip.Engine) bool {
	ep := rp.draw()
	if rp.tr.replayEpochs >= maxReplayEpochs || (ep >= 4 && ep&(ep-1) != 0) {
		return false
	}
	rp.replay(e.Snapshot(), ep)
	return true
}

// replayOnce replays the first matching against a placement (the sequential
// workload, whose engine runs no matchings of its own).
func (rp *replayer) replayOnce(a *hetlb.Assignment) {
	rp.replay(a, rp.draw())
}

func (rp *replayer) replay(a *hetlb.Assignment, ep int64) {
	tr := rp.tr
	rp.buildLists(a)
	n := len(rp.pairs) / 2
	limit := min(n, maxReplaySessions)
	rp.full = limit == n
	rp.moves = 0
	var work float64
	executed := 0
	sc := &rp.sc
	for t := 0; t < limit; t++ {
		i, j := rp.pairs[2*t], rp.pairs[2*t+1]
		if rp.plan != nil && (rp.plan.DownAt(i, ep) || rp.plan.DownAt(j, ep)) {
			continue // voided: the engine skips it too
		}
		li, lj := rp.lists[i], rp.lists[j]
		t0 := time.Now()
		sc.Union = pairwise.MergeSortedInto(sc.Union[:0], li, lj)
		t1 := time.Now()
		toI, toJ := rp.proto.SplitScratch(sc, i, j, sc.Union)
		t2 := time.Now()
		slices.Sort(toI)
		slices.Sort(toJ)
		t3 := time.Now()
		sc.Diff1 = pairwise.AppendDiff(sc.Diff1[:0], li, toI)
		sc.Diff2 = pairwise.AppendDiff(sc.Diff2[:0], lj, toJ)
		t4 := time.Now()

		merge, split, srt, diff := tr.net(t1.Sub(t0)), tr.net(t2.Sub(t1)), tr.net(t3.Sub(t2)), tr.net(t4.Sub(t3))
		tr.merge = append(tr.merge, merge)
		tr.split = append(tr.split, split)
		tr.sorts = append(tr.sorts, srt)
		tr.diff = append(tr.diff, diff)
		work += merge + split + srt + diff
		moved := len(sc.Diff1) + len(sc.Diff2)
		rp.moves += int64(moved)
		tr.unionJobs += len(sc.Union)
		tr.replayMoves += moved
		if moved > 0 {
			tr.replayChanged++
		}
		executed++
	}
	tr.replayEpochs++
	tr.replaySessions += executed
	rp.work = work * float64(n) / float64(max(limit, 1))
}

// buildLists fills lists[i] with machine i's jobs in increasing order (the
// engine's invariant) by one counting pass over the placement.
func (rp *replayer) buildLists(a *hetlb.Assignment) {
	n := a.Model().NumJobs()
	if rp.counts == nil {
		rp.counts = make([]int, rp.m)
		rp.lists = make([][]int, rp.m)
		rp.backing = make([]int, n)
	}
	clear(rp.counts)
	for j := 0; j < n; j++ {
		if i := a.MachineOf(j); i >= 0 {
			rp.counts[i]++
		}
	}
	start := 0
	for i, c := range rp.counts {
		rp.lists[i] = rp.backing[start : start : start+c]
		start += c
	}
	for j := 0; j < n; j++ {
		if i := a.MachineOf(j); i >= 0 {
			rp.lists[i] = append(rp.lists[i], j)
		}
	}
}

// metrics turns the traced run into the per-layer metrics. setup holds the
// median setup split. Layer times are per traced unit; on replicate they are
// summed over the harness workers.
func (tr *tracer) metrics(setup setupTimes) []metric {
	units := float64(max(tr.units, 1))
	var layerSum time.Duration
	for _, d := range tr.layers {
		layerSum += d
	}
	ms := []metric{
		{"workload.gen_s", "s", setup.gen.Seconds()},
		{"central.ref_s", "s", setup.ref.Seconds()},
		{"core.initial_s", "s", setup.initial.Seconds()},
	}
	for l, d := range tr.layers {
		ms = append(ms, metric{layerNames[l], "s", d.Seconds() / units})
	}
	var merge, split, sorts, diff float64
	for i := range tr.split {
		merge += tr.merge[i]
		split += tr.split[i]
		sorts += tr.sorts[i]
		diff += tr.diff[i]
	}
	replayed := float64(tr.replaySessions)
	ms = append(ms,
		metric{"trace.unit_s", "s", median(tr.unitWalls)},
		metric{"trace.coverage", "frac", ratio(float64(layerSum), float64(tr.workers)*float64(tr.wall))},
		metric{"trace.overhead_frac", "frac", ratio(float64(layerSum)/float64(tr.workers), float64(tr.untraced)) - 1},
		metric{"trace.timer_ns", "ns", float64(tr.timer)},
		metric{"trace.replay_epochs", "count", float64(tr.replayEpochs)},
		metric{"trace.replay_sessions", "count", replayed},
		metric{"shardgossip.epochs", "count", median(tr.unitEpochs)},
		metric{"shardgossip.quiet_epoch_frac", "frac", ratio(float64(tr.quietEpochs), float64(tr.epochs))},
		metric{"shardgossip.check_pairs", "count", median(tr.unitPairs)},
		metric{"shardgossip.check_ns_per_pair", "ns", ratio(float64(tr.layers[layerCheck]), float64(tr.checkPairs))},
		metric{"shardgossip.converged_frac", "frac", float64(tr.converged) / units},
		metric{"shardgossip.par_eff", "frac", ratio(tr.replayWork, shards*float64(tr.sampledStep))},
		metric{"harness.wall_s", "s", tr.harnessWall.Seconds() / units},
		metric{"harness.busy_frac", "frac", ratio(float64(tr.harnessBusy), float64(tr.workers)*float64(tr.harnessWall))},
		metric{"pairwise.union_jobs_mean", "count", ratio(float64(tr.unionJobs), replayed)},
		metric{"pairwise.merge_ns_p50", "ns", median(tr.merge)},
		metric{"pairwise.diff_ns_p50", "ns", median(tr.diff)},
		metric{"pairwise.changed_frac", "frac", ratio(float64(tr.replayChanged), replayed)},
		metric{"pairwise.moves_per_session", "count", ratio(float64(tr.replayMoves), replayed)},
		metric{"protocol.sort_ns_p50", "ns", median(tr.sorts)},
		metric{"protocol.split_share", "frac", ratio(split, merge+split+sorts+diff)},
		metric{"faults.voided_frac", "frac", ratio(float64(tr.voided), float64(tr.sessions))},
		metric{"faults.crashes", "count", float64(tr.crashes) / units},
		metric{"faults.jobs_lost", "count", float64(tr.jobsLost) / units},
		metric{"faults.jobs_rehosted", "count", float64(tr.jobsRehosted) / units},
		metric{"runtime.alloc_mb", "MB", tr.allocMB / units},
		metric{"runtime.gc_cycles", "count", tr.gcCycles / units},
		metric{"runtime.gc_pause_ms", "ms", tr.gcPauseMs / units},
	)
	ms = append(ms, distribution("shardgossip.step_ms", "ms", tr.stepMs)...)
	ms = append(ms, distribution("protocol.split_ns", "ns", tr.split)...)
	ms = append(ms, distribution("gossip.run_ms", "ms", tr.gossipMs)...)
	return append(ms, distribution("harness.rep_ms", "ms", tr.repMs)...)
}

// distribution reports a timing sample as its median and tail, with the
// tail's percentile and the sample count beside it.
func distribution(name, unit string, v []float64) []metric {
	t := tailOf(v)
	return []metric{
		{name + "_p50", unit, median(v)},
		{name + "_tail", unit, t.value},
		{name + "_tail_pct", "pct", t.pct},
		{name + "_samples", "count", float64(t.samples)},
	}
}
