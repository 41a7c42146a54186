package shardgossip

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestS1MatchesSequentialEngine pins the refactor's central claim: a
// one-shard engine replays gossip.Engine exactly. With MatchingSelection
// feeding the sequential engine the sharded schedule, every epoch must agree
// on steps, moves, makespan, total load, per-machine exchange counts and the
// full placement — step for step, not just at the end.
func TestS1MatchesSequentialEngine(t *testing.T) {
	gen := rng.New(100)
	ty := workload.UniformTyped(gen, 9, 120, 3, 1, 50)
	tc := workload.UniformTwoCluster(gen, 5, 4, 110, 1, 40)
	cases := []struct {
		name  string
		model core.CostModel
		proto protocol.Protocol
	}{
		{"typed-mjtb", ty, protocol.MJTB{Model: ty}},
		{"twocluster-dlb2c", tc, protocol.DLB2C{Model: tc}},
		{"twocluster-dlb2cminmove", tc, protocol.DLB2CMinMove{Model: tc}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const seed = 7
			m := c.model.NumMachines()
			ref := gossip.New(c.proto, core.RoundRobin(c.model), gossip.Config{
				// The engine seed is irrelevant: MatchingSelection ignores the
				// engine's generator by design.
				Seed:      12345,
				Selection: NewMatchingSelection(seed, m),
			})
			sh, err := New(c.proto, core.RoundRobin(c.model), Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()

			for epoch := 0; epoch < 60; epoch++ {
				for s := 0; s < m/2; s++ {
					ref.Step()
				}
				sh.StepEpoch()
				if sh.Steps() != ref.Steps() {
					t.Fatalf("epoch %d: steps %d != %d", epoch, sh.Steps(), ref.Steps())
				}
				if sh.Moves() != ref.Moves() {
					t.Fatalf("epoch %d: moves %d != %d", epoch, sh.Moves(), ref.Moves())
				}
				if sh.Makespan() != ref.Makespan() {
					t.Fatalf("epoch %d: makespan %d != %d", epoch, sh.Makespan(), ref.Makespan())
				}
				if sh.TotalLoad() != ref.TotalLoad() {
					t.Fatalf("epoch %d: total load %d != %d", epoch, sh.TotalLoad(), ref.TotalLoad())
				}
				if !slices.Equal(sh.Exchanges(), ref.Exchanges()) {
					t.Fatalf("epoch %d: exchange counts diverged", epoch)
				}
				if snap := sh.Snapshot(); !snap.Equal(ref.Assignment()) {
					t.Fatalf("epoch %d: placements diverged", epoch)
				}
			}
		})
	}
}

// TestRunMatchesSequentialRun checks the whole-run surface too: same final
// makespan and placement for a session budget that is a whole number of
// epochs.
func TestRunMatchesSequentialRun(t *testing.T) {
	gen := rng.New(101)
	tc := workload.UniformTwoCluster(gen, 6, 4, 100, 1, 60)
	m := tc.NumMachines()
	const seed, epochs = 13, 50
	budget := epochs * (m / 2)

	ref := gossip.New(protocol.DLB2C{Model: tc}, core.RoundRobin(tc), gossip.Config{
		Selection: NewMatchingSelection(seed, m),
	})
	refRes := ref.Run(budget, false)

	sh, err := New(protocol.DLB2C{Model: tc}, core.RoundRobin(tc), Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	res := sh.Run(budget, false)
	if res.Steps != refRes.Steps {
		t.Fatalf("steps %d != %d", res.Steps, refRes.Steps)
	}
	if res.FinalMakespan != refRes.FinalMakespan {
		t.Fatalf("makespan %d != %d", res.FinalMakespan, refRes.FinalMakespan)
	}
	if !res.Assignment.Equal(ref.Assignment()) {
		t.Fatal("final placements diverged")
	}
	if res.Epochs != epochs {
		t.Fatalf("epochs = %d, want %d", res.Epochs, epochs)
	}
}

// TestRunDetectsStability mirrors the sequential engine's convergence test:
// OJTB on one job type must converge, the result must verify as stable, and
// the snapshot must agree with the reported makespan.
func TestRunDetectsStability(t *testing.T) {
	ty, _ := core.NewTyped([][]core.Cost{{2}, {3}, {5}, {4}}, make([]int, 12))
	p := protocol.OJTB{Model: ty}
	e, err := New(p, core.AllOnMachine(ty, 2), Config{Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := e.Run(20000, true)
	if !res.Converged {
		t.Fatal("sharded engine did not detect convergence")
	}
	if !protocol.Stable(p, res.Assignment) {
		t.Fatal("reported converged but not stable")
	}
	if res.FinalMakespan != res.Assignment.Makespan() {
		t.Fatal("result makespan inconsistent with assignment")
	}
}

// TestNewRejectsBadInputs covers the constructor's error paths and Close's
// idempotence.
func TestNewRejectsBadInputs(t *testing.T) {
	ty, _ := core.NewTyped([][]core.Cost{{2}}, make([]int, 4))
	if _, err := New(protocol.OJTB{Model: ty}, core.RoundRobin(ty), Config{}); err == nil {
		t.Fatal("accepted a single-machine instance")
	}

	ty2, _ := core.NewTyped([][]core.Cost{{2}, {3}}, make([]int, 4))
	incomplete := core.NewAssignment(ty2)
	if _, err := New(protocol.OJTB{Model: ty2}, incomplete, Config{}); err == nil {
		t.Fatal("accepted an incomplete assignment")
	}

	e, err := New(protocol.OJTB{Model: ty2}, core.RoundRobin(ty2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // must be idempotent
}

// TestNewChecksShardCount pins New's shard-count check on five machines:
// negative counts and more shards than machines are rejected, the latter
// with an error naming both counts; zero (AutoShards) and every count up to
// one shard per machine are accepted and step an epoch.
func TestNewChecksShardCount(t *testing.T) {
	ty := workload.UniformTyped(rng.New(9), 5, 20, 2, 1, 9)
	for _, tc := range []struct {
		shards int
		ok     bool
	}{
		{-7, false}, {-1, false}, {0, true}, {1, true}, {3, true}, {5, true}, {6, false}, {64, false},
	} {
		e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Shards: tc.shards})
		if !tc.ok {
			if err == nil {
				e.Close()
				t.Fatalf("Shards: %d over 5 machines accepted", tc.shards)
			}
			if msg := err.Error(); tc.shards > 0 && (!strings.Contains(msg, strconv.Itoa(tc.shards)) || !strings.Contains(msg, "5 machines")) {
				t.Errorf("Shards: %d: error %q does not name both counts", tc.shards, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Shards: %d over 5 machines rejected: %v", tc.shards, err)
		}
		e.StepEpoch()
		if err := e.ValidateConservation(); err != nil {
			t.Errorf("Shards: %d: %v", tc.shards, err)
		}
		e.Close()
	}
}

// TestObserverSeesEpochs checks the Stepper-based observer contract on the
// sharded engine: one notification per epoch, step = the epoch's last
// session index, i = j = -1.
func TestObserverSeesEpochs(t *testing.T) {
	gen := rng.New(102)
	id := workload.UniformIdentical(gen, 8, 64, 1, 20)
	e, err := New(protocol.SameCost{Model: id}, core.RoundRobin(id), Config{Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var steps []int
	e.Observe(observerFunc(func(o gossip.Stepper, step, i, j int) {
		if i != -1 || j != -1 {
			t.Errorf("epoch notification carried pair (%d, %d), want (-1, -1)", i, j)
		}
		if o.Makespan() != e.Makespan() || o.Machines() != 8 {
			t.Error("observer Stepper disagrees with engine")
		}
		steps = append(steps, step)
	}))
	const epochs = 10
	for k := 0; k < epochs; k++ {
		e.StepEpoch()
	}
	if len(steps) != epochs {
		t.Fatalf("observer saw %d epochs, want %d", len(steps), epochs)
	}
	np := 8 / 2
	for k, s := range steps {
		if want := (k+1)*np - 1; s != want {
			t.Fatalf("epoch %d reported step %d, want %d", k, s, want)
		}
	}
}

type observerFunc func(e gossip.Stepper, step, i, j int)

func (f observerFunc) OnStep(e gossip.Stepper, step, i, j int) { f(e, step, i, j) }
