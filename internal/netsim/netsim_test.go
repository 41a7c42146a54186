package netsim

import (
	"reflect"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/harness"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	gen := rng.New(1)
	tc := workload.UniformTwoCluster(gen, 2, 2, 8, 1, 10)
	init := core.RoundRobin(tc)
	proto := protocol.DLB2C{Model: tc}
	if _, err := New(tc, proto, init, Config{Latency: 0, Period: 5, Horizon: 100}); err == nil {
		t.Fatal("latency 0 accepted")
	}
	if _, err := New(tc, proto, init, Config{Latency: 1, Period: 0, Horizon: 100}); err == nil {
		t.Fatal("period 0 accepted")
	}
	if _, err := New(tc, proto, init, Config{Latency: 1, Period: 5, Horizon: 0}); err == nil {
		t.Fatal("horizon 0 accepted")
	}
	incomplete := core.NewAssignment(tc)
	if _, err := New(tc, proto, incomplete, Config{Latency: 1, Period: 5, Horizon: 100}); err == nil {
		t.Fatal("incomplete initial accepted")
	}
	// An assignment built against a different model shape must be rejected
	// up front instead of panicking mid-run.
	other := workload.UniformTwoCluster(rng.New(2), 3, 2, 12, 1, 10)
	if _, err := New(tc, proto, core.RoundRobin(other), Config{Latency: 1, Period: 5, Horizon: 100}); err == nil {
		t.Fatal("initial assignment for a different model accepted")
	}
	// Invalid fault plans are rejected in New too.
	bad := &faults.Config{DropProb: 1.5}
	if _, err := New(tc, proto, init, Config{Latency: 1, Period: 5, Horizon: 100, Faults: bad}); err == nil {
		t.Fatal("invalid fault config accepted")
	}
	crash := &faults.Config{Crashes: []faults.Crash{{Machine: 99, At: 1, RecoverAt: 2}}}
	if _, err := New(tc, proto, init, Config{Latency: 1, Period: 5, Horizon: 100, Faults: crash}); err == nil {
		t.Fatal("crash schedule for an unknown machine accepted")
	}
}

func TestJobConservationSingleOwnership(t *testing.T) {
	gen := rng.New(2)
	tc := workload.UniformTwoCluster(gen, 6, 3, 72, 1, 100)
	init := core.RoundRobin(tc)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 3, Latency: 2, Period: 10, Horizon: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
	a, err := sim.Placement()
	if err != nil {
		t.Fatal(err) // double ownership would error here
	}
	if !a.Complete() {
		t.Fatalf("jobs lost: %d/%d placed", a.NumAssigned(), tc.NumJobs())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Sessions == 0 {
		t.Fatal("no sessions completed")
	}
	if a.Makespan() != st.FinalMakespan {
		t.Fatalf("final makespan mismatch: %d vs %d", a.Makespan(), st.FinalMakespan)
	}
}

func TestImprovesOverInitial(t *testing.T) {
	gen := rng.New(4)
	tc := workload.UniformTwoCluster(gen, 8, 4, 96, 1, 100)
	init := core.AllOnMachine(tc, 0)
	before := init.Makespan()
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 5, Latency: 1, Period: 8, Horizon: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.FinalMakespan >= before/2 {
		t.Fatalf("message-passing runtime barely improved: %d -> %d", before, st.FinalMakespan)
	}
}

func TestRejectionsHappenUnderContention(t *testing.T) {
	// Tiny system, aggressive period vs latency: initiators must collide
	// and produce rejections without deadlocking.
	gen := rng.New(6)
	tc := workload.UniformTwoCluster(gen, 2, 1, 24, 1, 50)
	init := core.RoundRobin(tc)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 7, Latency: 5, Period: 3, Horizon: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.Rejections == 0 {
		t.Fatal("no rejections despite heavy contention")
	}
	if st.Sessions == 0 {
		t.Fatal("contention starved all sessions")
	}
	if _, err := sim.Placement(); err != nil {
		t.Fatal(err)
	}
}

func TestHigherLatencyFewerSessions(t *testing.T) {
	gen := rng.New(8)
	tc := workload.UniformTwoCluster(gen, 4, 4, 64, 1, 100)
	init := core.RoundRobin(tc)
	run := func(latency int64) Stats {
		sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
			Seed: 9, Latency: latency, Period: 10, Horizon: 5000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	fast := run(1)
	slow := run(40) // session takes 3 hops = 120 >> period: mostly busy
	if slow.Sessions >= fast.Sessions {
		t.Fatalf("latency 40 completed %d sessions vs %d at latency 1",
			slow.Sessions, fast.Sessions)
	}
}

func TestSamplingCoversHorizon(t *testing.T) {
	gen := rng.New(10)
	id := workload.UniformIdentical(gen, 4, 32, 1, 20)
	init := core.RoundRobin(id)
	sim, err := New(id, protocol.SameCost{Model: id}, init, Config{
		Seed: 11, Latency: 1, Period: 50, Horizon: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if len(st.Times) < 10 {
		t.Fatalf("only %d samples over the horizon", len(st.Times))
	}
	for k := 1; k < len(st.Times); k++ {
		if st.Times[k] <= st.Times[k-1] {
			t.Fatal("sample times not increasing")
		}
	}
	if st.Times[len(st.Times)-1] > 1000 {
		t.Fatal("sampled past the horizon")
	}
}

func TestMessageCountAccounting(t *testing.T) {
	// On a perfect network every session costs 3 messages, every rejection
	// costs 2, nothing is retransmitted, and everything sent is delivered.
	gen := rng.New(12)
	tc := workload.UniformTwoCluster(gen, 3, 3, 36, 1, 50)
	init := core.RoundRobin(tc)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 13, Latency: 2, Period: 7, Horizon: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	want := 3*st.Sessions + 2*st.Rejections
	if st.Sent != want {
		t.Fatalf("sent = %d, want 3·%d + 2·%d = %d",
			st.Sent, st.Sessions, st.Rejections, want)
	}
	if st.Delivered != st.Sent {
		t.Fatalf("delivered = %d, sent = %d on a perfect network", st.Delivered, st.Sent)
	}
	if st.Retransmissions != 0 || st.Timeouts != 0 || st.Dropped != 0 || st.Aborts != 0 {
		t.Fatalf("fault counters nonzero on a perfect network: %+v", st)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	gen := rng.New(14)
	tc := workload.UniformTwoCluster(gen, 4, 2, 48, 1, 60)
	init := core.RoundRobin(tc)
	run := func() Stats {
		sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
			Seed: 15, Latency: 3, Period: 9, Horizon: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different runs")
	}
}

// TestZeroFaultPlanIsTransparent pins the acceptance criterion "a zero-fault
// plan reproduces the existing determinism goldens": attaching an all-zero
// faults.Config must yield bit-identical Stats to running with no plan at
// all, because the hardened handshake takes the exact same decisions when
// nothing is dropped, duplicated, jittered or crashed.
func TestZeroFaultPlanIsTransparent(t *testing.T) {
	gen := rng.New(77)
	tc := workload.UniformTwoCluster(gen, 5, 3, 64, 1, 80)
	init := core.RoundRobin(tc)
	run := func(fc *faults.Config) Stats {
		sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
			Seed: 78, Latency: 2, Period: 8, Horizon: 2500, Faults: fc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	plain := run(nil)
	zero := run(&faults.Config{})
	if !reflect.DeepEqual(plain, zero) {
		t.Fatalf("zero-fault plan diverged from faultless run:\n%+v\nvs\n%+v", plain, zero)
	}
}

// TestLossyNetworkConserves drives one hard instance — high loss,
// duplication and jitter at once — and checks that the run drains, no
// machine is wedged, every job survives, and the fault counters are
// plausible.
func TestLossyNetworkConserves(t *testing.T) {
	gen := rng.New(30)
	tc := workload.UniformTwoCluster(gen, 5, 3, 64, 1, 100)
	init := core.RoundRobin(tc)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 31, Latency: 2, Period: 9, Horizon: 3000,
		Faults:    &faults.Config{DropProb: 0.3, DupProb: 0.2, JitterMax: 3},
		MaxEvents: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
	a, err := sim.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Complete() {
		t.Fatalf("no crashes were scheduled, yet only %d/%d jobs placed", a.NumAssigned(), tc.NumJobs())
	}
	if st.Dropped == 0 || st.Duplicated == 0 || st.Retransmissions == 0 || st.Timeouts == 0 {
		t.Fatalf("fault machinery unexercised: %+v", st)
	}
	if st.Sessions == 0 {
		t.Fatal("no session survived the lossy network")
	}
	if st.Delivered >= st.Sent {
		t.Fatalf("delivered %d >= sent %d under 30%% loss", st.Delivered, st.Sent)
	}
}

// TestCrashLosesJobs pins the lost-jobs ledger: a machine that crashes
// under a LoseJobs plan and never recovers must leave exactly its jobs in
// the ledger, and conservation must hold for the survivors.
func TestCrashLosesJobs(t *testing.T) {
	gen := rng.New(40)
	tc := workload.UniformTwoCluster(gen, 4, 2, 36, 1, 50)
	init := core.RoundRobin(tc)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 41, Latency: 2, Period: 10, Horizon: 2000,
		Faults: &faults.Config{Crashes: []faults.Crash{
			{Machine: 2, At: 500, LoseJobs: true}, // never recovers
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
	if st.Crashes != 1 || st.Recoveries != 0 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/0", st.Crashes, st.Recoveries)
	}
	if st.JobsLost != len(st.Lost) {
		t.Fatalf("JobsLost %d != ledger size %d", st.JobsLost, len(st.Lost))
	}
	if st.JobsLost == 0 {
		t.Fatal("machine 2 crashed holding nothing; pick a later crash time")
	}
	for _, l := range st.Lost {
		if l.Machine != 2 || l.Time != 500 {
			t.Fatalf("ledger entry %+v not from machine 2's crash at 500", l)
		}
	}
	a, err := sim.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.NumJobs() - a.NumAssigned(); got != st.JobsLost {
		t.Fatalf("%d jobs unplaced, ledger says %d", got, st.JobsLost)
	}
}

// TestCrashRehostsOnRecovery pins the retention path: with LoseJobs false
// the crashed machine freezes its jobs and re-hosts them on recovery, so
// the final placement is complete.
func TestCrashRehostsOnRecovery(t *testing.T) {
	gen := rng.New(50)
	tc := workload.UniformTwoCluster(gen, 4, 2, 36, 1, 50)
	init := core.RoundRobin(tc)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 51, Latency: 2, Period: 10, Horizon: 2000,
		Faults: &faults.Config{
			DropProb: 0.1,
			Crashes: []faults.Crash{
				{Machine: 1, At: 400, RecoverAt: 900},
				{Machine: 3, At: 700, RecoverAt: 1500},
			},
		},
		MaxEvents: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
	if st.Crashes != 2 || st.Recoveries != 2 {
		t.Fatalf("crashes/recoveries = %d/%d, want 2/2", st.Crashes, st.Recoveries)
	}
	if st.JobsLost != 0 {
		t.Fatalf("retention plan lost %d jobs", st.JobsLost)
	}
	a, err := sim.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Complete() {
		t.Fatalf("only %d/%d jobs placed after recoveries", a.NumAssigned(), tc.NumJobs())
	}
}

// chaosRun is the property-test body: build a random instance and a random
// fault plan from the replication's keyed substream, run it to drain under
// an event watchdog, and require the conservation invariant.
func chaosRun(rep *harness.Rep) (Stats, error) {
	g := rep.RNG
	tc := workload.UniformTwoCluster(g, 5, 3, 48, 1, 100)
	init := core.RoundRobin(tc)
	fc := &faults.Config{
		DropProb:  0.3 * g.Float64(), // loss up to 30%
		DupProb:   0.25 * g.Float64(),
		JitterMax: g.Int64n(4),
		Crashes:   faults.RandomCrashes(g.Uint64(), 8, 1200, 1+g.Intn(4), 150, 0.5),
	}
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: g.Uint64(), Latency: 2, Period: 9, Horizon: 1200,
		Faults:    fc,
		MaxEvents: 2_000_000, // deadlock watchdog: drain must finish well below this
	})
	if err != nil {
		return Stats{}, err
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// TestChaosProperty is the acceptance property test: 128 seeds with random
// fault plans (loss up to 30%, duplication, jitter, crashes with and
// without job loss) all drain without deadlock and conserve jobs, and the
// whole sweep is bit-identical whether the harness runs it on 1 worker or
// 4.
func TestChaosProperty(t *testing.T) {
	const seeds = 128
	serial, err := harness.Map(harness.Options{Parallelism: 1}, 0xC805, seeds, chaosRun)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := harness.Map(harness.Options{Parallelism: 4}, 0xC805, seeds, chaosRun)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("chaos sweep differs between 1 and 4 workers")
	}
	// The sweep must actually exercise the machinery it claims to test.
	var crashes, lost, reclaimed, retrans, dups int
	for _, st := range serial {
		crashes += st.Crashes
		lost += st.JobsLost
		reclaimed += st.JobsReclaimed
		retrans += st.Retransmissions
		dups += st.Duplicated
	}
	if crashes == 0 || lost == 0 || retrans == 0 || dups == 0 {
		t.Fatalf("sweep too tame: crashes=%d lost=%d reclaimed=%d retrans=%d dups=%d",
			crashes, lost, reclaimed, retrans, dups)
	}
}

func BenchmarkNetsimPaperScale(b *testing.B) {
	gen := rng.New(16)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	init := core.RoundRobin(tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
			Seed: uint64(i), Latency: 1, Period: 10, Horizon: 500,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
}

func BenchmarkNetsimChaosPaperScale(b *testing.B) {
	gen := rng.New(17)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	init := core.RoundRobin(tc)
	fc := &faults.Config{
		DropProb: 0.2, DupProb: 0.1, JitterMax: 2,
		Crashes: faults.RandomCrashes(18, 96, 500, 6, 60, 0.5),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
			Seed: uint64(i), Latency: 1, Period: 10, Horizon: 500, Faults: fc,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
}

// TestObsMetricsMatchStats attaches the obs instruments and checks every
// counter against the simulator's own statistics, plus the invariants of
// the three-message handshake on a perfect network.
func TestObsMetricsMatchStats(t *testing.T) {
	gen := rng.New(91)
	tc := workload.UniformTwoCluster(gen, 6, 3, 72, 1, 100)
	init := core.RoundRobin(tc)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	rec := span.NewRecorder(1 << 15)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 92, Latency: 3, Period: 10, Horizon: 1500,
		Metrics: met, Spans: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()

	if got := met.Sessions.Value(); got != int64(st.Sessions) {
		t.Fatalf("netsim_sessions_total = %d, want %d", got, st.Sessions)
	}
	if got := met.Rejections.Value(); got != int64(st.Rejections) {
		t.Fatalf("netsim_rejections_total = %d, want %d", got, st.Rejections)
	}
	if got := met.Sent.Total(); got != int64(st.Sent) {
		t.Fatalf("netsim_messages_sent_total = %d, want %d", got, st.Sent)
	}
	if got := met.Delivered.Total(); got != int64(st.Delivered) {
		t.Fatalf("netsim_messages_delivered_total = %d, want %d", got, st.Delivered)
	}
	// Handshake shape: each completed session is REQUEST+OFFER+COMMIT, each
	// rejection REQUEST+REJECT; the perfect network delivers all of it.
	if got, want := met.Delivered.At(MsgRequest).Value(), int64(st.Sessions+st.Rejections); got != want {
		t.Fatalf("requests = %d, want %d", got, want)
	}
	if got := met.Delivered.At(MsgOffer).Value(); got != int64(st.Sessions) {
		t.Fatalf("offers = %d, want sessions %d", got, st.Sessions)
	}
	if got := met.Delivered.At(MsgCommit).Value(); got != int64(st.Sessions) {
		t.Fatalf("commits = %d, want sessions %d", got, st.Sessions)
	}
	if got := met.Delivered.At(MsgReject).Value(); got != int64(st.Rejections) {
		t.Fatalf("rejects = %d, want rejections %d", got, st.Rejections)
	}
	if got := met.Delivered.At(MsgAbort).Value(); got != 0 {
		t.Fatalf("aborts on a perfect network: %d", got)
	}
	// Every delivered copy observed the constant simulated latency.
	if met.Latency.Count() != int64(st.Delivered) || met.Latency.Sum() != 3*int64(st.Delivered) {
		t.Fatalf("latency histogram count=%d sum=%d, want %d/%d",
			met.Latency.Count(), met.Latency.Sum(), st.Delivered, 3*st.Delivered)
	}
	// A completed handshake is exactly three hops of latency 3.
	if met.Handshake.Count() != int64(st.Sessions) {
		t.Fatalf("handshake count = %d, want %d", met.Handshake.Count(), st.Sessions)
	}
	if st.Sessions > 0 && met.Handshake.Sum() != 9*int64(st.Sessions) {
		t.Fatalf("handshake sum = %d, want %d", met.Handshake.Sum(), 9*st.Sessions)
	}
	// Every completed session took zero retries on a perfect network.
	if met.SessionRetries.Count() != int64(st.Sessions) || met.SessionRetries.Sum() != 0 {
		t.Fatalf("session retries count=%d sum=%d, want %d/0",
			met.SessionRetries.Count(), met.SessionRetries.Sum(), st.Sessions)
	}
	if got := met.Makespan.Value(); got != int64(st.FinalMakespan) {
		// The gauge holds the last *sample*; after drainage the final value
		// can only differ if jobs were mid-flight at the last sample, which
		// Run's drain rules out at the final sample time. Allow either the
		// final makespan or the last sampled one.
		last := st.Makespans[len(st.Makespans)-1]
		if got != int64(last) {
			t.Fatalf("netsim_makespan = %d, want %d or %d", got, st.FinalMakespan, last)
		}
	}
	// Spans: the target's committed close record is appended where a
	// session completes, so there is one per session.
	if rec.Dropped() != 0 {
		t.Fatalf("span ring dropped %d records; raise capacity", rec.Dropped())
	}
	var ended int
	for _, s := range rec.Spans() {
		if s.Kind == span.KindSession && s.Tag == span.TagTarget && s.Flags == span.FlagCommitted {
			ended++
		}
	}
	if ended != st.Sessions {
		t.Fatalf("committed target session spans = %d, want %d", ended, st.Sessions)
	}
	if st.Sessions == 0 {
		t.Fatal("test instance produced no sessions; weaken the horizon")
	}
}

// TestObsFaultCountersMatchStats checks the degradation instruments against
// the Stats under a faulty plan.
func TestObsFaultCountersMatchStats(t *testing.T) {
	gen := rng.New(95)
	tc := workload.UniformTwoCluster(gen, 5, 3, 48, 1, 100)
	init := core.RoundRobin(tc)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	sim, err := New(tc, protocol.DLB2C{Model: tc}, init, Config{
		Seed: 96, Latency: 2, Period: 9, Horizon: 2000,
		Faults: &faults.Config{
			DropProb: 0.25, DupProb: 0.15, JitterMax: 3,
			Crashes: []faults.Crash{
				{Machine: 1, At: 600, RecoverAt: 1100},
				{Machine: 6, At: 900, LoseJobs: true},
			},
		},
		MaxEvents: 5_000_000,
		Metrics:   met,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if err := sim.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  int64
		want int
	}{
		{"sent", met.Sent.Total(), st.Sent},
		{"delivered", met.Delivered.Total(), st.Delivered},
		{"dropped", met.Dropped.Value(), st.Dropped},
		{"crash-voided", met.CrashDropped.Value(), st.CrashDropped},
		{"duplicated", met.Duplicated.Value(), st.Duplicated},
		{"dup-suppressed", met.DupSuppressed.Value(), st.DupSuppressed},
		{"timeouts", met.Timeouts.Value(), st.Timeouts},
		{"retransmissions", met.Retransmissions.Value(), st.Retransmissions},
		{"aborts", met.Aborts.Value(), st.Aborts},
		{"crashes", met.Crashes.Value(), st.Crashes},
		{"recoveries", met.Recoveries.Value(), st.Recoveries},
		{"jobs-lost", met.JobsLost.Value(), st.JobsLost},
		{"jobs-reclaimed", met.JobsReclaimed.Value(), st.JobsReclaimed},
	}
	for _, c := range checks {
		if c.got != int64(c.want) {
			t.Errorf("%s metric = %d, stats say %d", c.name, c.got, c.want)
		}
	}
	if st.Dropped == 0 || st.Crashes != 2 {
		t.Fatalf("plan under-exercised: %+v", st)
	}
}
