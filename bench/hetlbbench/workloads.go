package main

import (
	"fmt"
	"time"

	"hetlb"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/shardgossip"
	gen "hetlb/internal/workload"
)

// The sharded workloads run S=2 shards and the replication workload runs two
// workers, fixed rather than AutoShards, so a number means the same load on
// every machine; the reference box has two cores.
const (
	shards      = 2
	parallelism = 2
)

// Metric names of the engines' move counters, read back from the registry
// the facade fills (the facade's Result has no move count).
const (
	shardMovesCounter  = "shardgossip_moves_total"
	gossipMovesCounter = "gossip_moves_total"
)

// params sizes every workload. fullParams is what the benchmark runs;
// toyParams shrinks each workload to at most 64 machines for the smoke test,
// through the same code paths.
type params struct {
	// stable: items of stableM1+stableM1 machines and stableJobs jobs, a pool
	// of stablePool distinct items, each run to a verified-stable schedule or
	// stableCap epochs.
	stableM1, stableJobs, stablePool, stableCap int
	// threshold: thrM1+thrM1 machines, thrJobs jobs, at most thrCap epochs.
	thrM1, thrJobs, thrCap int
	// churn: churnM machines, churnJobs jobs of churnTypes types, a window
	// of churnEpochs epochs with churnCrashes crash candidates.
	churnM, churnJobs, churnTypes, churnEpochs, churnCrashes int
	// replicate: repCount replications of repM1+repM2 machines and repJobs
	// jobs, each running repExch exchanges per machine.
	repCount, repM1, repM2, repJobs, repExch int
}

var fullParams = params{
	stableM1: 32, stableJobs: 512, stablePool: 128, stableCap: 2000,
	thrM1: 8192, thrJobs: 100 * 2 * 8192, thrCap: 64,
	churnM: 8192, churnJobs: 1 << 19, churnTypes: 5, churnEpochs: 96, churnCrashes: 1024,
	repCount: 1000, repM1: 64, repM2: 32, repJobs: 768, repExch: 30,
}

var toyParams = params{
	stableM1: 8, stableJobs: 64, stablePool: 4, stableCap: 400,
	thrM1: 32, thrJobs: 6400, thrCap: 64,
	churnM: 64, churnJobs: 4096, churnTypes: 5, churnEpochs: 24, churnCrashes: 16,
	repCount: 8, repM1: 16, repM2: 8, repJobs: 192, repExch: 30,
}

// workload is one benchmark input family. setup builds every input the
// measured units take as given (instances, references, initial placements,
// crash plans), so run_s never includes generation.
type workload struct {
	name  string
	setup func(p params, seed uint64, st *setupTimes) (instance, error)
}

var workloads = []workload{
	{"stable-dlb2c-32x32", setupStable},
	{"threshold-dlb2c-16k", setupThreshold},
	{"churn-mjtb-8k", setupChurn},
	{"replicate-seq-fig3", setupReplicate},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a set-up workload. A unit is one fixed amount of work; unit k
// is the same work in every run with the same seed, traced or not, and units
// k and k+units() are the same work.
type instance interface {
	// units is the number of distinct units, the workload's work set.
	units() int
	// unit runs unit k with tracing off; the caller times the call.
	unit(k int) (outcome, error)
	// traced runs unit k through the same public calls, timing each one
	// into tr and replaying sampled sessions.
	traced(k int, tr *tracer) (outcome, error)
	// check is the correctness gate, run outside every timer.
	check(o outcome) error
}

// outcome is what one unit produced. The counts and the makespan are
// deterministic, so a traced unit must reproduce them exactly.
type outcome struct {
	sessions  int   // pairwise sessions, voided ones included
	machines  int   // machines summed over the unit's instances
	moves     int64 // job migrations
	cmax      int64 // final Cmax, summed over the unit's instances
	converged bool
	ratio     float64 // final Cmax over the reference (mean over instances)

	// Gate inputs, dropped after the check.
	final *hetlb.Assignment
	lost  int
	reps  []repResult
}

func (o outcome) sameWork(t outcome) bool {
	return o.sessions == t.sessions && o.moves == t.moves && o.cmax == t.cmax && o.converged == t.converged
}

// setupTimes splits one setup into its layers.
type setupTimes struct{ gen, ref, initial time.Duration }

func timeInto(d *time.Duration, f func()) {
	t0 := time.Now()
	f()
	*d += time.Since(t0)
}

// --- stable: DLB2C to the Theorem 7 stopping point ----------------------

// Time to a verified-stable DLB2C schedule is heavy-tailed across instances
// (a failed O(m²) check may stop at the first pair or scan nearly all of
// them, and some instances never converge), so one large instance gives a
// number that depends mostly on the seed. A unit is therefore one small item,
// the work set is a pool of them, and run_s is the median over the pool.
type stableItem struct {
	model   *hetlb.TwoCluster
	initial *hetlb.Assignment
	ref     hetlb.Cost
	seed    uint64
}

type stable struct {
	p     params
	items []stableItem
}

func setupStable(p params, seed uint64, st *setupTimes) (instance, error) {
	w := &stable{p: p, items: make([]stableItem, p.stablePool)}
	for k := range w.items {
		it := &w.items[k]
		timeInto(&st.gen, func() {
			g := rng.New(hetlb.DeriveSeed(seed, 0, uint64(k)))
			it.model = gen.UniformTwoCluster(g, p.stableM1, p.stableM1, p.stableJobs, 1, 1000)
		})
		timeInto(&st.ref, func() { it.ref = hetlb.CLB2C(it.model).Makespan() })
		timeInto(&st.initial, func() { it.initial = hetlb.RoundRobin(it.model) })
		it.seed = hetlb.DeriveSeed(seed, 1, uint64(k))
	}
	return w, nil
}

func (w *stable) units() int { return len(w.items) }

func (w *stable) item(k int) *stableItem { return &w.items[k%len(w.items)] }

func (w *stable) unit(k int) (outcome, error) {
	it := w.item(k)
	m := it.model.NumMachines()
	reg := hetlb.NewMetricsRegistry()
	res, err := hetlb.DLB2C(it.model, it.initial, hetlb.RunOptions{
		Seed:            it.seed,
		Shards:          shards,
		DetectStability: true,
		MaxExchanges:    w.p.stableCap * (m / 2),
		Metrics:         reg,
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		sessions:  res.Exchanges,
		machines:  m,
		moves:     reg.Counter(shardMovesCounter, "").Value(),
		cmax:      int64(res.Makespan),
		converged: res.Converged,
		ratio:     float64(res.Makespan) / float64(it.ref),
		final:     res.Assignment,
	}, nil
}

// traced runs the item on two engines with the same seed. The first is the
// traced unit: New and Run(cap, true), the facade's own calls, so the stop
// rule is the engine's and the outcome must match the untraced unit. The
// second, a twin kept out of the traced wall, steps the same number of
// epochs one timed StepEpoch at a time and drives the replay. A stability
// check does not change the placement, so both engines execute the same
// epochs: the twin's epoch times are the first engine's step_s, and the rest
// of its Run is check_s (the stability checks and the final snapshot). Both
// engines count their kernel calls; the difference is the pairs the checks
// scanned.
func (w *stable) traced(k int, tr *tracer) (outcome, error) {
	it := w.item(k)
	m := it.model.NumMachines()
	cfg := shardgossip.Config{Seed: it.seed, Shards: shards}
	proto := protocol.DLB2C{Model: it.model}
	run := &countingProtocol{Protocol: proto}
	e, err := tr.newEngine(run, it.initial, cfg)
	if err != nil {
		return outcome{}, err
	}
	var res shardgossip.Result
	var runTime time.Duration
	timeInto(&runTime, func() { res = e.Run(w.p.stableCap*(m/2), true) })
	tr.close(e)

	t0, aside, stepped := time.Now(), tr.unitAside, tr.layers[layerStep]
	twinProto := &countingProtocol{Protocol: proto}
	twin, err := shardgossip.New(twinProto, it.initial, cfg)
	if err != nil {
		return outcome{}, err
	}
	rp := tr.replayer(proto, it.seed, m, nil)
	for twin.Epochs() < res.Epochs {
		tr.stepEpoch(twin, rp)
	}
	twin.Close()
	tr.unitAside = aside + time.Since(t0)
	tr.layers[layerCheck] += runTime - (tr.layers[layerStep] - stepped)
	tr.checkPairs += run.calls.Load() - twinProto.calls.Load()
	if twin.Moves() != e.Moves() || twin.Makespan() != e.Makespan() {
		return outcome{}, fmt.Errorf("stable: twin engine diverged: moves %d/%d, Cmax %d/%d",
			e.Moves(), twin.Moves(), e.Makespan(), twin.Makespan())
	}
	return outcome{
		sessions:  res.Steps,
		machines:  m,
		moves:     int64(e.Moves()),
		cmax:      int64(res.FinalMakespan),
		converged: res.Converged,
		ratio:     float64(res.FinalMakespan) / float64(it.ref),
		final:     res.Assignment,
	}, nil
}

// check: the engine's verdict agrees with the library's independent
// clone-based check. An item that hits the epoch cap unconverged is not a
// failure (Proposition 8: DLB2C need not converge) as long as the schedule
// is indeed unstable.
func (w *stable) check(o outcome) error {
	if o.final == nil || !o.final.Complete() {
		return fmt.Errorf("stable: final schedule is not complete")
	}
	model, ok := o.final.Model().(*hetlb.TwoCluster)
	if !ok {
		return fmt.Errorf("stable: final schedule has the wrong model")
	}
	if st := hetlb.IsStable(model, o.final); st != o.converged {
		return fmt.Errorf("stable: engine reports converged=%v, IsStable=%v", o.converged, st)
	}
	return nil
}

// --- threshold: DLB2C to the Figure 5 threshold ---------------------------

type threshold struct {
	p       params
	model   *hetlb.TwoCluster
	initial *hetlb.Assignment
	ref     hetlb.Cost
	seed    uint64
}

func setupThreshold(p params, seed uint64, st *setupTimes) (instance, error) {
	w := &threshold{p: p, seed: hetlb.DeriveSeed(seed, 1)}
	timeInto(&st.gen, func() {
		w.model = gen.UniformTwoCluster(rng.New(hetlb.DeriveSeed(seed, 0)), p.thrM1, p.thrM1, p.thrJobs, 1, 1000)
	})
	timeInto(&st.ref, func() { w.ref = hetlb.CLB2C(w.model).Makespan() })
	timeInto(&st.initial, func() { w.initial = hetlb.RoundRobin(w.model) })
	return w, nil
}

func (w *threshold) units() int { return 1 }

// above reports whether Cmax is still above 1.5×CLB2C (exact integer test).
func (w *threshold) above(cmax hetlb.Cost) bool { return 2*int64(cmax) > 3*int64(w.ref) }

func (w *threshold) outcome(e *shardgossip.Engine, snap *hetlb.Assignment) outcome {
	return outcome{
		sessions: e.Steps(),
		machines: w.model.NumMachines(),
		moves:    int64(e.Moves()),
		cmax:     int64(e.Makespan()),
		ratio:    float64(e.Makespan()) / float64(w.ref),
		final:    snap,
	}
}

func (w *threshold) unit(int) (outcome, error) {
	e, err := shardgossip.New(protocol.DLB2C{Model: w.model}, w.initial, shardgossip.Config{Seed: w.seed, Shards: shards})
	if err != nil {
		return outcome{}, err
	}
	for epochs := 0; w.above(e.Makespan()) && epochs < w.p.thrCap; epochs++ {
		e.StepEpoch()
	}
	snap := e.Snapshot()
	e.Close()
	return w.outcome(e, snap), nil
}

func (w *threshold) traced(_ int, tr *tracer) (outcome, error) {
	proto := protocol.DLB2C{Model: w.model}
	e, err := tr.newEngine(proto, w.initial, shardgossip.Config{Seed: w.seed, Shards: shards})
	if err != nil {
		return outcome{}, err
	}
	rp := tr.replayer(proto, w.seed, w.model.NumMachines(), nil)
	for epochs := 0; w.above(e.Makespan()) && epochs < w.p.thrCap; epochs++ {
		tr.stepEpoch(e, rp)
	}
	var snap *hetlb.Assignment
	timeInto(&tr.layers[layerSnapshot], func() { snap = e.Snapshot() })
	tr.close(e)
	return w.outcome(e, snap), nil
}

func (w *threshold) check(o outcome) error {
	switch {
	case o.final == nil || !o.final.Complete():
		return fmt.Errorf("threshold: snapshot is not complete")
	case int64(o.final.Makespan()) != o.cmax:
		return fmt.Errorf("threshold: snapshot Cmax %d, engine Cmax %d", o.final.Makespan(), o.cmax)
	case w.above(hetlb.Cost(o.cmax)):
		return fmt.Errorf("threshold: Cmax %d still above 1.5×%d after %d epochs", o.cmax, w.ref, w.p.thrCap)
	}
	return nil
}

// --- churn: MJTB over a fixed epoch window under crashes ------------------

type churn struct {
	p       params
	model   *hetlb.Typed
	initial *hetlb.Assignment
	ref     hetlb.Cost
	plan    hetlb.FaultConfig
	seed    uint64
}

func setupChurn(p params, seed uint64, st *setupTimes) (instance, error) {
	w := &churn{p: p, seed: hetlb.DeriveSeed(seed, 1)}
	timeInto(&st.gen, func() {
		w.model = gen.UniformTyped(rng.New(hetlb.DeriveSeed(seed, 0)), p.churnM, p.churnJobs, p.churnTypes, 1, 100)
		// A mean downtime of 8 epochs, a quarter of the crashes losing
		// their jobs: about 2% of sessions are voided.
		w.plan.Crashes = hetlb.RandomCrashes(hetlb.DeriveSeed(seed, 2), p.churnM, int64(p.churnEpochs), p.churnCrashes, 8, 0.25)
	})
	timeInto(&st.ref, func() { w.ref = typedLowerBound(w.model) })
	timeInto(&st.initial, func() { w.initial = hetlb.RoundRobin(w.model) })
	return w, nil
}

// typedLowerBound is hetlb.LowerBound computed through the typed structure:
// a job's cheapest machine depends only on its type, so the bound costs
// O(m·k + n) instead of the generic O(m·n) scan, which takes about a minute
// at this workload's size. The smoke test checks the two agree.
func typedLowerBound(t *hetlb.Typed) hetlb.Cost {
	rep := make([]int, t.NumTypes())
	for i := range rep {
		rep[i] = -1
	}
	for j := 0; j < t.NumJobs(); j++ {
		if ty := t.TypeOf(j); rep[ty] < 0 {
			rep[ty] = j
		}
	}
	minCost := make([]hetlb.Cost, len(rep))
	for ty, j := range rep {
		if j < 0 {
			continue
		}
		minCost[ty] = t.Cost(0, j)
		for i := 1; i < t.NumMachines(); i++ {
			minCost[ty] = min(minCost[ty], t.Cost(i, j))
		}
	}
	var maxMin, sum hetlb.Cost
	for j := 0; j < t.NumJobs(); j++ {
		c := minCost[t.TypeOf(j)]
		maxMin = max(maxMin, c)
		sum += c
	}
	m := hetlb.Cost(t.NumMachines())
	return max(maxMin, (sum+m-1)/m)
}

func (w *churn) units() int { return 1 }

func (w *churn) unit(int) (outcome, error) {
	m := w.model.NumMachines()
	reg := hetlb.NewMetricsRegistry()
	res, err := hetlb.MJTB(w.model, w.initial, hetlb.RunOptions{
		Seed:         w.seed,
		Shards:       shards,
		MaxExchanges: w.p.churnEpochs * (m / 2),
		Faults:       &w.plan,
		Metrics:      reg,
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		sessions: res.Exchanges,
		machines: m,
		moves:    reg.Counter(shardMovesCounter, "").Value(),
		cmax:     int64(res.Makespan),
		ratio:    float64(res.Makespan) / float64(w.ref),
		final:    res.Assignment,
		lost:     res.JobsLost,
	}, nil
}

// traced steps exactly the facade's window and reads the fault counters
// through Engine.Run(0, false), which snapshots without stepping.
func (w *churn) traced(_ int, tr *tracer) (outcome, error) {
	m := w.model.NumMachines()
	proto := protocol.MJTB{Model: w.model}
	e, err := tr.newEngine(proto, w.initial, shardgossip.Config{Seed: w.seed, Shards: shards, Faults: &w.plan})
	if err != nil {
		return outcome{}, err
	}
	rp := tr.replayer(proto, w.seed, m, &w.plan)
	for e.Steps() < w.p.churnEpochs*(m/2) {
		tr.stepEpoch(e, rp)
	}
	var res shardgossip.Result
	timeInto(&tr.layers[layerSnapshot], func() { res = e.Run(0, false) })
	tr.close(e)
	tr.crashes += res.Crashes
	tr.jobsLost += res.JobsLost
	tr.jobsRehosted += res.JobsRehosted
	tr.voided += res.Voided
	return outcome{
		sessions: res.Steps,
		machines: m,
		moves:    int64(e.Moves()),
		cmax:     int64(res.FinalMakespan),
		ratio:    float64(res.FinalMakespan) / float64(w.ref),
		final:    res.Assignment,
		lost:     res.JobsLost,
	}, nil
}

func (w *churn) check(o outcome) error {
	if o.final == nil {
		return fmt.Errorf("churn: no final schedule")
	}
	n := w.model.NumJobs()
	placed, unplaced := o.final.NumAssigned(), len(o.final.Unplaced())
	if unplaced != o.lost || placed+o.lost != n {
		return fmt.Errorf("churn: %d placed + %d lost != %d jobs (%d unplaced)", placed, o.lost, n, unplaced)
	}
	return nil
}

// --- replicate: the sequential research path ------------------------------

// Each replication is a paper-sized two-cluster instance (Figure 3's 64+32
// machines, 768 jobs) run by the sequential engine for a fixed exchange
// budget; the unit runs repCount of them through hetlb.Replicate. Instances
// and random initial placements are built in setup; each replication clones
// its placement (the sequential engine balances in place), computes CLB2C and
// runs DLB2C.
type replicate struct {
	p       params
	models  []*hetlb.TwoCluster
	initial []*hetlb.Assignment
	seed    uint64
	replay  uint64 // keys the matchings the traced run replays
}

type repResult struct {
	exchanges int
	moves     int64
	cmax, ref hetlb.Cost
}

func setupReplicate(p params, seed uint64, st *setupTimes) (instance, error) {
	w := &replicate{
		p:       p,
		models:  make([]*hetlb.TwoCluster, p.repCount),
		initial: make([]*hetlb.Assignment, p.repCount),
		seed:    hetlb.DeriveSeed(seed, 1),
		replay:  hetlb.DeriveSeed(seed, 3),
	}
	for i := range w.models {
		timeInto(&st.gen, func() {
			w.models[i] = gen.UniformTwoCluster(rng.New(hetlb.DeriveSeed(seed, 0, uint64(i))), p.repM1, p.repM2, p.repJobs, 1, 1000)
		})
		timeInto(&st.initial, func() {
			w.initial[i] = hetlb.RandomInitial(w.models[i], hetlb.DeriveSeed(seed, 2, uint64(i)))
		})
	}
	return w, nil
}

// repTimes is one replication's split of its body time.
type repTimes struct{ clone, ref, gossip, body time.Duration }

// run is the unit body shared by the untraced and traced paths; times is nil
// when tracing is off.
func (w *replicate) run(times []repTimes) (outcome, error) {
	m := w.p.repM1 + w.p.repM2
	reps, err := hetlb.Replicate(hetlb.ReplicationOptions{Parallelism: parallelism}, w.seed, w.p.repCount,
		func(rep *hetlb.Replication) (repResult, error) {
			var t0, t1, t2 time.Time
			if times != nil {
				t0 = time.Now()
			}
			model := w.models[rep.Index]
			a := w.initial[rep.Index].Clone()
			if times != nil {
				t1 = time.Now()
			}
			ref := hetlb.CLB2C(model).Makespan()
			if times != nil {
				t2 = time.Now()
			}
			reg := hetlb.NewMetricsRegistry()
			res, err := hetlb.DLB2C(model, a, hetlb.RunOptions{
				Seed:         rep.RNG.Uint64(),
				MaxExchanges: w.p.repExch * m,
				Metrics:      reg,
			})
			if times != nil {
				t3 := time.Now()
				times[rep.Index] = repTimes{clone: t1.Sub(t0), ref: t2.Sub(t1), gossip: t3.Sub(t2), body: t3.Sub(t0)}
			}
			return repResult{exchanges: res.Exchanges, moves: reg.Counter(gossipMovesCounter, "").Value(), cmax: res.Makespan, ref: ref}, err
		})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{machines: m * len(reps), reps: reps}
	for _, r := range reps {
		o.sessions += r.exchanges
		o.moves += r.moves
		o.cmax += int64(r.cmax)
		o.ratio += float64(r.cmax) / float64(r.ref) / float64(len(reps))
	}
	return o, nil
}

func (w *replicate) units() int { return 1 }

func (w *replicate) unit(int) (outcome, error) { return w.run(nil) }

func (w *replicate) traced(_ int, tr *tracer) (outcome, error) {
	m := w.p.repM1 + w.p.repM2
	t0 := time.Now()
	for i := 0; i < len(w.models) && tr.replayEpochs < maxReplayEpochs; i++ {
		rp := tr.replayer(protocol.DLB2C{Model: w.models[i]}, hetlb.DeriveSeed(w.replay, uint64(i)), m, nil)
		rp.replayOnce(w.initial[i])
	}
	tr.unitAside += time.Since(t0)

	times := make([]repTimes, w.p.repCount)
	t1 := time.Now()
	o, err := w.run(times)
	tr.harnessWall += time.Since(t1)
	tr.workers = parallelism
	for _, t := range times {
		tr.layers[layerClone] += t.clone
		tr.layers[layerRef] += t.ref
		tr.layers[layerGossip] += t.gossip
		tr.harnessBusy += t.body
		tr.gossipMs = append(tr.gossipMs, float64(t.gossip)/1e6)
		tr.repMs = append(tr.repMs, float64(t.body)/1e6)
	}
	return o, err
}

// check: every replication returned, ran its exact exchange budget, and
// reports a positive Cmax and reference.
func (w *replicate) check(o outcome) error {
	want := w.p.repExch * (w.p.repM1 + w.p.repM2)
	if len(o.reps) != w.p.repCount {
		return fmt.Errorf("replicate: %d of %d replications returned", len(o.reps), w.p.repCount)
	}
	for i, r := range o.reps {
		if r.exchanges != want {
			return fmt.Errorf("replicate: replication %d ran %d exchanges, want %d", i, r.exchanges, want)
		}
		if r.cmax <= 0 || r.ref <= 0 {
			return fmt.Errorf("replicate: replication %d has Cmax %d, reference %d", i, r.cmax, r.ref)
		}
	}
	return nil
}
