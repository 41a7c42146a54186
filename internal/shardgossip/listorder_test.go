package shardgossip

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
	"testing"

	"hetlb/internal/central"
	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/gossip"
	"hetlb/internal/obs/span"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// jobIndexOrder wraps a protocol and keeps its job lists in increasing job
// index: every step then pools plain job indices and its kernels sort.
type jobIndexOrder struct{ protocol.Protocol }

func (jobIndexOrder) ListOrder() []uint32 { return nil }

// engineRun is what one engine run exposes: placement, loads, moves,
// exchanges, span trace and the lost ledger.
type engineRun struct {
	placement *core.Assignment
	loads     []core.Cost
	moves     int
	exchanges []int
	trace     []byte
	lost      []LostJob
}

func (r engineRun) diff(o engineRun) string {
	switch {
	case !r.placement.Equal(o.placement):
		return "placements"
	case !slices.Equal(r.loads, o.loads):
		return "loads"
	case r.moves != o.moves:
		return "moves"
	case !slices.Equal(r.exchanges, o.exchanges):
		return "exchanges"
	case !bytes.Equal(r.trace, o.trace):
		return "span traces"
	case !slices.Equal(r.lost, o.lost):
		return "lost ledgers"
	}
	return ""
}

func jsonl(t *testing.T, rec *span.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSequentialChecked steps the sequential engine in rounds, recording its
// engine's and protocol.UnstablePair's answer after each, then runs it to a
// verified-stable schedule or its step budget.
func runSequentialChecked(t *testing.T, p protocol.Protocol, tc *core.TwoCluster, seed uint64) (engineRun, [][4]int) {
	t.Helper()
	rec := span.NewRecorder(1 << 14)
	e := gossip.New(p, core.RoundRobin(tc), gossip.Config{Seed: seed, Spans: rec})
	var checks [][4]int
	for round := 0; round < 6; round++ {
		for s := 0; s < 15*(round+1); s++ {
			e.Step()
		}
		ei, ej := e.UnstablePair()
		pi, pj := protocol.UnstablePair(p, e.Assignment())
		checks = append(checks, [4]int{ei, ej, pi, pj})
	}
	e.Run(4000, true)
	a := e.Assignment()
	return engineRun{a.Clone(), a.Loads(), e.Moves(), slices.Clone(e.Exchanges()), jsonl(t, rec), nil}, checks
}

// runShardedChecked does the same on the sharded engine, in epochs, under
// an optional crash plan, and validates conservation after every round.
func runShardedChecked(t *testing.T, p protocol.Protocol, tc *core.TwoCluster, seed uint64, shards int, plan *faults.Config) (engineRun, [][2]int) {
	t.Helper()
	rec := span.NewRecorder(1 << 14)
	e, err := New(p, core.RoundRobin(tc), Config{Seed: seed, Shards: shards, Faults: plan, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var checks [][2]int
	for round := 0; round < 6; round++ {
		for k := 0; k < 2; k++ {
			e.StepEpoch()
		}
		i, j := e.unstablePair()
		checks = append(checks, [2]int{i, j})
		if err := e.ValidateConservation(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run(4000, true)
	return engineRun{res.Assignment, slices.Clone(e.load), e.Moves(), slices.Clone(e.Exchanges()), jsonl(t, rec), e.Lost()}, checks
}

// TestRatioOrderedListsMatchJobOrder is the equivalence of the two kinds of
// job list: DLB2C keeps its lists in the model's ratio order, and the same
// protocol behind a wrapper whose ListOrder is nil keeps them in job order
// and sorts every union. On the sequential engine and on the sharded one at
// S = 1, 2, 3, without and with a crash plan that loses jobs, both must give
// identical placements, loads, moves, exchanges, span traces and lost
// ledgers, and every stability check along the way (each engine's own and
// protocol.UnstablePair) must return the same pair.
func TestRatioOrderedListsMatchJobOrder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		gen := rng.New(seed * 7919)
		m1, m2 := 2+gen.Intn(5), 2+gen.Intn(5)
		m := m1 + m2
		// Costs in [1, 12] tie often, so ties in ratio are common.
		tc := workload.UniformTwoCluster(gen, m1, m2, 3*m+gen.Intn(10*m), 1, 12)
		ordered := protocol.DLB2C{Model: tc}
		plain := jobIndexOrder{ordered}
		if ordered.ListOrder() == nil && strconv.IntSize == 64 {
			t.Fatal("DLB2C on a two-cluster model keeps no ratio order")
		}

		got, gotChecks := runSequentialChecked(t, ordered, tc, seed)
		want, wantChecks := runSequentialChecked(t, plain, tc, seed)
		if d := got.diff(want); d != "" {
			t.Fatalf("seed %d sequential: %s differ between ratio-ordered and job-ordered lists", seed, d)
		}
		if !slices.Equal(gotChecks, wantChecks) {
			t.Fatalf("seed %d sequential: stability checks %v, job order %v", seed, gotChecks, wantChecks)
		}

		plan := &faults.Config{Crashes: []faults.Crash{
			{Machine: 0, At: 2, LoseJobs: true},
			{Machine: m - 1, At: 3, RecoverAt: 7, LoseJobs: true},
			{Machine: m1, At: 5, RecoverAt: 9},
		}}
		for _, pl := range []*faults.Config{nil, plan} {
			for shards := 1; shards <= 3; shards++ {
				got, gotChecks := runShardedChecked(t, ordered, tc, seed, shards, pl)
				want, wantChecks := runShardedChecked(t, plain, tc, seed, shards, pl)
				if d := got.diff(want); d != "" {
					t.Fatalf("seed %d S=%d plan=%v: %s differ between ratio-ordered and job-ordered lists", seed, shards, pl != nil, d)
				}
				if !slices.Equal(gotChecks, wantChecks) {
					t.Fatalf("seed %d S=%d plan=%v: stability checks %v, job order %v", seed, shards, pl != nil, gotChecks, wantChecks)
				}
				if pl != nil && len(got.lost) == 0 {
					t.Fatalf("seed %d S=%d: the crash plan lost no job", seed, shards)
				}
			}
		}
	}
}

// TestStableShardedRunsSatisfyCertificates checks the two Theorem 7
// certificates, protocol.EquationThree and protocol.ClusterImbalance, on
// every verified-stable sharded DLB2C run at the shape of the stable
// benchmark workload: 32+32 machines, 512 jobs U[1,1000], round-robin
// start, two shards, 16 seeds.
func TestStableShardedRunsSatisfyCertificates(t *testing.T) {
	verified := 0
	for seed := uint64(1); seed <= 16; seed++ {
		tc := workload.UniformTwoCluster(rng.New(seed), 32, 32, 512, 1, 1000)
		e, err := New(protocol.DLB2C{Model: tc}, core.RoundRobin(tc), Config{Seed: seed, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(4000*32, true)
		e.Close()
		if !res.Converged {
			continue
		}
		verified++
		if err := protocol.EquationThree(tc, res.Assignment); err != nil {
			t.Fatalf("seed %d: stable schedule: %v", seed, err)
		}
		if err := protocol.ClusterImbalance(tc, res.Assignment); err != nil {
			t.Fatalf("seed %d: stable schedule: %v", seed, err)
		}
	}
	if verified < 12 {
		t.Fatalf("only %d of 16 runs reached a verified-stable schedule", verified)
	}
	t.Logf("%d of 16 runs verified stable", verified)
}

// TestRatioOrderFirstTouchRace races the first RatioOrder calls of a fresh
// model: four goroutines ask for the order while a sequential and a sharded
// DLB2C run and a CLB2C reference on the same model build their lists from
// it. Every caller must get the one cached order, and the runs must match
// runs on a second model over the same costs whose order was built before
// any of them started.
func TestRatioOrderFirstTouchRace(t *testing.T) {
	gen := rng.New(77)
	base := workload.UniformTwoCluster(gen, 6, 5, 400, 1, 30)
	p0, p1 := base.ClusterCosts(0), base.ClusterCosts(1)
	type result struct {
		seq, sharded *core.Assignment
		seqMoves     int
		ref          *core.Assignment
	}
	run := func(tc *core.TwoCluster, orders [][]uint32) result {
		var r result
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range orders {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				orders[g] = tc.RatioOrder()
			}(g)
		}
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			e := gossip.New(protocol.DLB2C{Model: tc}, core.RoundRobin(tc), gossip.Config{Seed: 5})
			e.Run(3000, true)
			r.seq, r.seqMoves = e.Assignment(), e.Moves()
		}()
		go func() {
			defer wg.Done()
			<-start
			e, err := New(protocol.DLB2C{Model: tc}, core.RoundRobin(tc), Config{Seed: 5, Shards: 2})
			if err != nil {
				t.Error(err)
				return
			}
			r.sharded = e.Run(3000, true).Assignment
			e.Close()
		}()
		go func() {
			defer wg.Done()
			<-start
			r.ref = central.RunCLB2C(tc)
		}()
		close(start)
		wg.Wait()
		return r
	}
	warm, _ := core.NewTwoCluster(6, 5, p0, p1)
	want := warm.RatioOrder()
	ref := run(warm, nil)

	fresh, _ := core.NewTwoCluster(6, 5, p0, p1)
	orders := make([][]uint32, 4)
	got := run(fresh, orders)
	for g, o := range orders {
		if !slices.Equal(o, want) || &o[0] != &fresh.RatioOrder()[0] {
			t.Fatalf("goroutine %d got a different order than the model caches", g)
		}
	}
	switch {
	case got.seq == nil || got.sharded == nil:
		t.Fatal("a run did not finish")
	case !got.seq.Equal(ref.seq) || got.seqMoves != ref.seqMoves:
		t.Fatal("sequential run differs from the run on a prebuilt order")
	case !got.sharded.Equal(ref.sharded):
		t.Fatal("sharded run differs from the run on a prebuilt order")
	case !got.ref.Equal(ref.ref):
		t.Fatal("CLB2C reference differs from the one on a prebuilt order")
	}
}
