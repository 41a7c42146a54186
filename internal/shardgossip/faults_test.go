package shardgossip

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// chaosOutcome is everything a faulted invariance run compares: the
// placement hash, the trajectory counters, and the degradation counters.
type chaosOutcome struct {
	sig       uint64
	makespan  core.Cost
	moves     int
	steps     int
	crashes   int
	recovered int
	jobsLost  int
	rehosted  int
	voided    int
}

// runChaos executes a fixed 48-epoch MJTB run on a fixed typed instance
// under the given crash plan and shard count, validates conservation, and
// returns the comparable outcome. Then it continues the same engine with a
// stability-checked Run of up to 400 more epochs; a stable verdict with
// every machine up must carry Theorem 5's certificate (certify), counted
// in st.
func runChaos(t *testing.T, plan faults.Config, shards int, st *checkStats) chaosOutcome {
	t.Helper()
	gen := rng.New(300)
	ty := workload.UniformTyped(gen, 24, 300, 3, 1, 50)
	p := protocol.MJTB{Model: ty}
	e, err := New(p, core.RoundRobin(ty), Config{Seed: 11, Shards: shards, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for epoch := 0; epoch < 48; epoch++ {
		e.StepEpoch()
	}
	if err := e.ValidateConservation(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	fs := e.faults
	out := chaosOutcome{
		sig:      sigHash(e.Snapshot()),
		makespan: e.Makespan(),
		moves:    e.Moves(),
		steps:    e.Steps(),
		voided:   e.Voided(),
	}
	if fs != nil {
		out.crashes, out.recovered = fs.crashes, fs.recoveries
		out.jobsLost, out.rehosted = fs.jobsLost, fs.jobsRehosted
	}
	if r := e.Run(400*e.Machines()/2, true); r.Converged && e.DownMachines() == 0 {
		certify(t, fmt.Sprintf("shards=%d, after the plan", shards), p, r.Assignment, st)
	}
	return out
}

// TestShardChaosProperty is the acceptance suite: 128 random crash/loss
// plans, each replayed at S ∈ {1, 2, 4} and at GOMAXPROCS 1 vs the
// process's own, must produce bit-identical placements and counters and
// conserve every job after the plan drains (the 48-epoch run outlives the
// 40-epoch fault horizon). Every run then continues to a stable verdict,
// which runChaos certifies with Theorem 5 when every machine is up; the
// full suite fails if it certified none.
func TestShardChaosProperty(t *testing.T) {
	plans := 128
	if testing.Short() {
		plans = 16
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var st checkStats
	defer func() {
		t.Logf("%d runs certified by Theorem 5", st.theorem5)
		if !testing.Short() && !t.Failed() && st.theorem5 == 0 {
			t.Error("no chaos run reached a stable verdict with every machine up to certify")
		}
	}()
	for p := 0; p < plans; p++ {
		seed := rng.DeriveSeed(424242, uint64(p))
		plan := faults.Config{
			Crashes: faults.RandomCrashes(seed, 24, 40, 1+p%6, 8, 0.25*float64(p%5)),
		}
		base := runChaos(t, plan, 1, &st)
		if base.crashes == 0 {
			t.Fatalf("plan %d scheduled no crashes", p)
		}
		for _, s := range []int{2, 4} {
			if got := runChaos(t, plan, s, &st); got != base {
				t.Fatalf("plan %d shards=%d diverged:\n got %+v\nwant %+v", p, s, got, base)
			}
		}
		runtime.GOMAXPROCS(1)
		got := runChaos(t, plan, 4, &st)
		runtime.GOMAXPROCS(prev)
		if got != base {
			t.Fatalf("plan %d GOMAXPROCS=1 diverged:\n got %+v\nwant %+v", p, got, base)
		}
	}
}

// TestShardChaosPinnedGolden hardcodes one faulted trajectory. A change here
// means the faulted sharded trajectory itself changed — down-set
// derivation, void filtering, loss/rehost bookkeeping, or the schedule —
// which the bit-identical criterion forbids without a documented break.
func TestShardChaosPinnedGolden(t *testing.T) {
	plan := faults.Config{
		Crashes: faults.RandomCrashes(rng.DeriveSeed(424242, 7), 24, 40, 4, 8, 0.5),
	}
	var st checkStats
	base := runChaos(t, plan, 1, &st)
	for _, s := range []int{2, 4, 8} {
		if got := runChaos(t, plan, s, &st); got != base {
			t.Fatalf("shards=%d diverged:\n got %+v\nwant %+v", s, got, base)
		}
	}
	want := chaosOutcome{
		sig: 0xe045043407441a98, makespan: 131, moves: 1778, steps: 576,
		crashes: 4, recovered: 4, jobsLost: 2, rehosted: 16, voided: 28,
	}
	if base != want {
		t.Fatalf("golden broken:\n got %+v\nwant %+v", base, want)
	}
}

// TestCrashRecoveryRecheck pins the stability check across a recovery: a
// run that proves stability while a machine is down (its frozen jobs out of
// play) stops there. Stepping on moves nothing until the machine recovers.
// From the recovery on, the check must split the recovered machine's pairs
// again and answer as a full scan does: right after the transition, before
// any session could move the machine, and after each later epoch. A second
// Run must then converge with the frozen jobs re-hosted.
func TestCrashRecoveryRecheck(t *testing.T) {
	gen := rng.New(310)
	ty := workload.UniformTyped(gen, 8, 64, 2, 1, 20)
	plan := faults.Config{Crashes: []faults.Crash{{Machine: 2, At: 1, RecoverAt: 120}}}
	proto := protocol.MJTB{Model: ty}
	e, err := New(proto, core.RoundRobin(ty), Config{Seed: 3, Shards: 2, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := e.Run(100_000, true)
	if !res.Converged {
		t.Fatalf("run did not converge with machine 2 down (epochs=%d)", e.Epochs())
	}
	if e.Epochs() >= 120 {
		t.Fatalf("run converged only after the recovery (epoch %d); shrink the instance", e.Epochs())
	}
	if !e.Down(2) || e.DownMachines() != 1 {
		t.Fatal("machine 2 not reported down")
	}
	moves := e.Moves()
	for e.Epochs() < 120 {
		e.StepEpoch()
		if e.Moves() != moves {
			t.Fatalf("a verified-stable placement moved at epoch %d, before the recovery", e.Epochs())
		}
	}
	e.applyFaults() // the recovery, as StepEpoch applies it before epoch 120's sessions
	if e.Down(2) || e.DownMachines() != 0 {
		t.Fatal("machine 2 still reported down after recovery")
	}
	for k := 0; k < 4; k++ {
		wi, wj := fullScan(proto, e.jobs, e.faults.down)
		if gi, gj := e.unstablePair(); gi != wi || gj != wj {
			t.Fatalf("epoch %d after the recovery: check (%d,%d), full scan (%d,%d)", e.Epochs(), gi, gj, wi, wj)
		}
		if k == 0 && wi == -1 {
			t.Fatal("the placement is stable with machine 2 back; the re-check was not exercised")
		}
		e.StepEpoch()
	}
	res = e.Run(100_000, true)
	if !res.Converged {
		t.Fatal("run did not re-converge after the recovery")
	}
	if res.JobsRehosted == 0 || res.JobsLost != 0 {
		t.Fatalf("rehosted=%d lost=%d, want rehosted>0 lost=0", res.JobsRehosted, res.JobsLost)
	}
	if err := e.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestLoseJobsCrash pins the loss policy: a LoseJobs crash empties the
// machine, the lost ledger and the partial snapshot agree, and conservation
// still holds.
func TestLoseJobsCrash(t *testing.T) {
	gen := rng.New(320)
	ty := workload.UniformTyped(gen, 6, 60, 2, 1, 10)
	plan := faults.Config{Crashes: []faults.Crash{{Machine: 1, At: 2, LoseJobs: true}}}
	e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 5, Shards: 3, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for epoch := 0; epoch < 10; epoch++ {
		e.StepEpoch()
	}
	lost := e.Lost()
	if len(lost) == 0 {
		t.Fatal("no jobs recorded lost")
	}
	for _, lj := range lost {
		if lj.Machine != 1 || lj.Epoch != 2 {
			t.Fatalf("lost entry %+v, want machine 1 at epoch 2", lj)
		}
	}
	snap := e.Snapshot()
	if snap.Complete() {
		t.Fatal("snapshot complete despite lost jobs")
	}
	unplaced := snap.Unplaced()
	if len(unplaced) != len(lost) {
		t.Fatalf("%d unplaced jobs for %d lost", len(unplaced), len(lost))
	}
	if err := e.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenJobsKeepCounting pins the freeze policy: without LoseJobs the
// crashed machine's load stays in the Cmax reduction (mirroring netsim's
// frozen-work accounting) and comes back intact.
func TestFrozenJobsKeepCounting(t *testing.T) {
	gen := rng.New(330)
	ty := workload.UniformTyped(gen, 4, 40, 2, 5, 9)
	plan := faults.Config{Crashes: []faults.Crash{{Machine: 0, At: 1, RecoverAt: 6}}}
	e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 8, Shards: 1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.StepEpoch() // epoch 0: all up
	frozenLoad := e.load[0]
	jobs := len(e.jobs[0])
	if jobs == 0 {
		t.Fatal("machine 0 holds no jobs at the crash")
	}
	for epoch := 1; epoch < 6; epoch++ {
		e.StepEpoch()
		if e.load[0] != frozenLoad || len(e.jobs[0]) != jobs {
			t.Fatalf("frozen machine changed at epoch %d", epoch)
		}
		if e.Makespan() < frozenLoad {
			t.Fatalf("Cmax %d excludes frozen load %d", e.Makespan(), frozenLoad)
		}
	}
	e.StepEpoch() // applies the recovery
	if e.Down(0) {
		t.Fatal("machine 0 still down")
	}
	if err := e.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultObservability checks the degraded-mode instruments: the metrics
// counters agree with the Result's degradation fields and KindFault
// crash/recover spans hang under the run span.
func TestFaultObservability(t *testing.T) {
	gen := rng.New(340)
	ty := workload.UniformTyped(gen, 10, 100, 2, 1, 20)
	plan := faults.Config{Crashes: []faults.Crash{
		{Machine: 1, At: 2, RecoverAt: 5},
		{Machine: 7, At: 3, LoseJobs: true},
	}}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	rec := span.NewRecorder(1 << 12)
	e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 2, Shards: 2, Faults: &plan, Metrics: met, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := e.Run(200, false)
	if res.Crashes != 2 || res.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 2/1", res.Crashes, res.Recoveries)
	}
	if res.JobsLost == 0 || res.JobsRehosted == 0 || res.Voided == 0 {
		t.Fatalf("lost=%d rehosted=%d voided=%d, want all > 0", res.JobsLost, res.JobsRehosted, res.Voided)
	}
	if got := met.Crashes.Value(); got != int64(res.Crashes) {
		t.Fatalf("metric crashes %d != result %d", got, res.Crashes)
	}
	if got := met.Recoveries.Value(); got != int64(res.Recoveries) {
		t.Fatalf("metric recoveries %d != result %d", got, res.Recoveries)
	}
	if got := met.JobsLost.Value(); got != int64(res.JobsLost) {
		t.Fatalf("metric jobs lost %d != result %d", got, res.JobsLost)
	}
	if got := met.JobsRehosted.Value(); got != int64(res.JobsRehosted) {
		t.Fatalf("metric rehosted %d != result %d", got, res.JobsRehosted)
	}
	if got := met.Voided.Value(); got != int64(res.Voided) {
		t.Fatalf("metric voided %d != result %d", got, res.Voided)
	}
	// Machine 7 never recovers, so the gauge must still read 1.
	if got := met.Down.Value(); got != 1 {
		t.Fatalf("down gauge %d, want 1", got)
	}
	var runID span.ID
	crash, recover, voidedSpans := 0, 0, 0
	for _, s := range rec.Spans() {
		if s.Kind == span.KindRun {
			runID = s.ID
		}
	}
	for _, s := range rec.Spans() {
		switch {
		case s.Kind == span.KindFault && s.Tag == span.TagCrash:
			crash++
			if s.Parent != runID {
				t.Fatalf("crash span parented under %d, want run span %d", s.Parent, runID)
			}
		case s.Kind == span.KindFault && s.Tag == span.TagRecover:
			recover++
		case s.Kind == span.KindSession && s.Flags&span.FlagAborted != 0 && s.Tag == span.TagCrash:
			voidedSpans++
		}
	}
	if crash != 2 || recover != 1 {
		t.Fatalf("fault spans crash=%d recover=%d, want 2/1", crash, recover)
	}
	if voidedSpans != res.Voided {
		t.Fatalf("%d voided session spans for %d voided sessions", voidedSpans, res.Voided)
	}
}

// TestFaultPlanRejected pins New's plan validation: message-level faults
// and invalid crash schedules must be refused up front.
func TestFaultPlanRejected(t *testing.T) {
	gen := rng.New(350)
	ty := workload.UniformTyped(gen, 4, 20, 2, 1, 10)
	for _, plan := range []faults.Config{
		{DropProb: 0.1, Crashes: []faults.Crash{{Machine: 0, At: 1, RecoverAt: 2}}},
		{JitterMax: 3, Crashes: []faults.Crash{{Machine: 0, At: 1, RecoverAt: 2}}},
		{Crashes: []faults.Crash{{Machine: 9, At: 1, RecoverAt: 2}}},
		{Crashes: []faults.Crash{{Machine: 0, At: 1, RecoverAt: 3}, {Machine: 0, At: 2, RecoverAt: 4}}},
	} {
		if _, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Shards: 1, Faults: &plan}); err == nil {
			t.Fatalf("plan %+v accepted", plan)
		}
	}
	// A nil or zero plan arms nothing: the engine stays on the unarmed path.
	e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Shards: 1, Faults: &faults.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.faults != nil {
		t.Fatal("zero plan armed fault state")
	}
}

// TestFaultFreeTrajectoryUnchanged re-pins the PR-7/8 golden through a
// Config that carries a nil fault plan: arming the field must not perturb
// the fault-free trajectory.
func TestFaultFreeTrajectoryUnchanged(t *testing.T) {
	gen := rng.New(200)
	ty := workload.UniformTyped(gen, 33, 400, 4, 1, 99)
	e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 9, Shards: 4, Faults: nil})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for epoch := 0; epoch < 40; epoch++ {
		e.StepEpoch()
	}
	got := outcome{sigHash(e.Snapshot()), e.Makespan(), e.Moves(), e.Steps()}
	want := outcome{sig: 0x07e3d49fe327e355, makespan: 260, moves: 2311, steps: 640}
	if got != want {
		t.Fatalf("fault-free golden broken:\n got %+v\nwant %+v", got, want)
	}
}

// decodePlan reads an arbitrary crash plan for m machines, four bytes per
// crash and at most 12 crashes: the machine, in [-1, m+1], so it may lie out
// of range; the crash time, in [-1, 22], so it may lie before 1; the
// recovery, 0 (never) or an offset in [-2, 12] from the crash time, so it
// may not follow the crash; and LoseJobs, the low bit of the fourth byte.
// Crashes of one machine may overlap. faults.Validate decides which plans
// run.
func decodePlan(data []byte, m int) []faults.Crash {
	var out []faults.Crash
	for ; len(data) >= 4 && len(out) < 12; data = data[4:] {
		cr := faults.Crash{
			Machine:  int(data[0])%(m+3) - 1,
			At:       int64(data[1]%24) - 1,
			LoseJobs: data[3]&1 != 0,
		}
		if off := int64(data[2] % 16); off != 0 {
			cr.RecoverAt = cr.At + off - 3
		}
		out = append(out, cr)
	}
	return out
}

// planRun is what a faulted run must reproduce at every shard count.
type planRun struct {
	placement string
	loads     []core.Cost
	moves     int
	lost      []LostJob
	trace     []byte
}

// runPlan steps p from initial for 36 epochs under plan at the given shard
// count, checking job conservation after every epoch.
func runPlan(t *testing.T, p protocol.Protocol, initial *core.Assignment, seed uint64, shards int, plan *faults.Config) planRun {
	t.Helper()
	rec := span.NewRecorder(1 << 10)
	e, err := New(p, initial, Config{Seed: seed, Shards: shards, Faults: plan, Spans: rec})
	if err != nil {
		t.Fatalf("S=%d: New rejected a plan faults.Validate accepts: %v", shards, err)
	}
	defer e.Close()
	for k := 0; k < 36; k++ {
		e.StepEpoch()
		if err := e.ValidateConservation(); err != nil {
			t.Fatalf("S=%d epoch %d: %v", shards, k, err)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return planRun{e.Snapshot().Signature(), slices.Clone(e.load), e.Moves(), e.Lost(), buf.Bytes()}
}

// FuzzShardedFaultPlan decodes an arbitrary crash plan (decodePlan) for a
// small instance. Either faults.Validate rejects the plan, and so must New,
// or a short MJTB run and a short DLB2C run under it conserve every job
// after each epoch and give identical placements, loads, moves, lost
// ledgers and span traces at S = 1, 2 and 3.
func FuzzShardedFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, machines byte, seed uint64, data []byte) {
		m := 4 + int(machines%9)
		plan := faults.Config{Crashes: decodePlan(data, m)}
		gen := rng.New(seed)
		n := m + gen.Intn(5*m)
		ty := workload.UniformTyped(gen, m, n, 1+gen.Intn(3), 1, 40)
		tc := workload.UniformTwoCluster(gen, m/2, m-m/2, n, 1, 40)
		if err := plan.Validate(m); err != nil {
			if e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Shards: 1, Faults: &plan}); err == nil {
				e.Close()
				t.Fatalf("New accepted a plan faults.Validate rejects: %+v", plan.Crashes)
			}
			return
		}
		for _, c := range []struct {
			model core.CostModel
			proto protocol.Protocol
		}{{ty, protocol.MJTB{Model: ty}}, {tc, protocol.DLB2C{Model: tc}}} {
			p, initial := c.proto, core.RoundRobin(c.model)
			base := runPlan(t, p, initial, seed, 1, &plan)
			for s := 2; s <= 3; s++ {
				got := runPlan(t, p, initial, seed, s, &plan)
				switch {
				case got.placement != base.placement:
					t.Fatalf("%s S=%d: placement differs from S=1", p.Name(), s)
				case !slices.Equal(got.loads, base.loads):
					t.Fatalf("%s S=%d: loads %v, S=1 %v", p.Name(), s, got.loads, base.loads)
				case got.moves != base.moves:
					t.Fatalf("%s S=%d: %d moves, S=1 %d", p.Name(), s, got.moves, base.moves)
				case !slices.Equal(got.lost, base.lost):
					t.Fatalf("%s S=%d: lost %v, S=1 %v", p.Name(), s, got.lost, base.lost)
				case !bytes.Equal(got.trace, base.trace):
					t.Fatalf("%s S=%d: span trace differs from S=1", p.Name(), s)
				}
			}
		}
	})
}
