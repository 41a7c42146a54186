package shardgossip

import (
	"runtime"
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestDeltaLoadsMatchRecompute pins the O(moved) session updates and the
// per-shard partial reductions against ground truth: after EVERY epoch of a
// 64-epoch run, each machine's cached load must exactly equal the sum of its
// job costs recomputed from scratch, and the barrier's reduced makespan /
// total load must equal a full O(m) fold over those recomputed loads.
// core.Cost is integral, so equality is exact — no tolerance.
func TestDeltaLoadsMatchRecompute(t *testing.T) {
	gen := rng.New(200)
	ty := workload.UniformTyped(gen, 11, 150, 3, 1, 50)
	tc := workload.UniformTwoCluster(gen, 6, 5, 130, 1, 40)
	cases := []struct {
		name   string
		model  core.CostModel
		proto  protocol.Protocol
		shards int
	}{
		{"typed-mjtb/s=1", ty, protocol.MJTB{Model: ty}, 1},
		{"typed-mjtb/s=3", ty, protocol.MJTB{Model: ty}, 3},
		{"twocluster-dlb2c/s=1", tc, protocol.DLB2C{Model: tc}, 1},
		{"twocluster-dlb2c/s=4", tc, protocol.DLB2C{Model: tc}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(c.proto, core.RoundRobin(c.model), Config{Seed: 42, Shards: c.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			m := c.model.NumMachines()
			for epoch := 0; epoch < 64; epoch++ {
				e.StepEpoch()
				var max core.Cost
				var sum int64
				for i := 0; i < m; i++ {
					var want core.Cost
					for _, entry := range e.jobs[i] {
						want += c.model.Cost(i, core.JobOf(entry))
					}
					if e.load[i] != want {
						t.Fatalf("epoch %d machine %d: delta-updated load %d != recomputed %d", epoch, i, e.load[i], want)
					}
					if want > max {
						max = want
					}
					sum += int64(want)
				}
				if e.Makespan() != max {
					t.Fatalf("epoch %d: reduced makespan %d != recomputed %d", epoch, e.Makespan(), max)
				}
				if e.TotalLoad() != sum {
					t.Fatalf("epoch %d: reduced total load %d != recomputed %d", epoch, e.TotalLoad(), sum)
				}
			}
		})
	}
}

// TestStableFastPathMatchesFullPath proves the verified-stable session skip
// is invisible: run engine A to convergence (latching the fast path), step
// it further, and compare every Stepper-visible output against engine B,
// which executes the identical schedule with the full kernel path (never
// latched because it never runs a stability check).
func TestStableFastPathMatchesFullPath(t *testing.T) {
	build := func() *Engine {
		ty, _ := core.NewTyped([][]core.Cost{{2}, {3}, {5}, {4}, {3}, {2}}, make([]int, 18))
		e, err := New(protocol.OJTB{Model: ty}, core.AllOnMachine(ty, 2), Config{Seed: 17, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := build()
	defer a.Close()
	res := a.Run(50000, true)
	if !res.Converged {
		t.Fatal("instance did not converge; pick a different seed")
	}
	if !a.Stable() {
		t.Fatal("converged run did not latch the verified-stable fast path")
	}
	const extra = 40
	for k := 0; k < extra; k++ {
		a.StepEpoch()
	}

	b := build()
	defer b.Close()
	if b.Stable() {
		t.Fatal("fresh engine unexpectedly stable")
	}
	for b.Epochs() < a.Epochs() {
		b.StepEpoch()
	}
	if b.Stable() {
		t.Fatal("engine B latched stability without a stability check; comparison would be vacuous")
	}
	if a.Steps() != b.Steps() || a.Moves() != b.Moves() {
		t.Fatalf("steps/moves diverged: (%d, %d) != (%d, %d)", a.Steps(), a.Moves(), b.Steps(), b.Moves())
	}
	if a.Makespan() != b.Makespan() || a.TotalLoad() != b.TotalLoad() {
		t.Fatalf("makespan/total load diverged: (%d, %d) != (%d, %d)", a.Makespan(), a.TotalLoad(), b.Makespan(), b.TotalLoad())
	}
	if !slices.Equal(a.Exchanges(), b.Exchanges()) {
		t.Fatal("exchange counters diverged between fast path and full path")
	}
	if !a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("placements diverged between fast path and full path")
	}
}

// TestAutoShardHeuristic checks the Shards: 0 default: the partition gets
// AutoShards(m) shards (GOMAXPROCS clamped to m), and — because shard count
// never affects results — the run is bit-identical to an explicit S=1 engine.
func TestAutoShardHeuristic(t *testing.T) {
	gen := rng.New(201)
	ty := workload.UniformTyped(gen, 9, 90, 2, 1, 30)
	auto, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if got, want := auto.Partition().NumShards(), AutoShards(9); got != want {
		t.Fatalf("auto shard count = %d, want AutoShards(9) = %d", got, want)
	}
	one, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	for k := 0; k < 30; k++ {
		auto.StepEpoch()
		one.StepEpoch()
	}
	if auto.Makespan() != one.Makespan() || auto.Moves() != one.Moves() {
		t.Fatalf("auto-sharded run diverged from S=1: (%d, %d) != (%d, %d)",
			auto.Makespan(), auto.Moves(), one.Makespan(), one.Moves())
	}
	if !auto.Snapshot().Equal(one.Snapshot()) {
		t.Fatal("auto-sharded placement diverged from S=1")
	}
}

// TestAutoShardsClamps pins the heuristic's bounds without depending on the
// runner's core count: never more shards than machines, never fewer than 1.
func TestAutoShardsClamps(t *testing.T) {
	if got := AutoShards(1); got != 1 {
		t.Fatalf("AutoShards(1) = %d, want 1", got)
	}
	if got, max := AutoShards(2), 2; got < 1 || got > max {
		t.Fatalf("AutoShards(2) = %d, out of [1, %d]", got, max)
	}
	if p := runtime.GOMAXPROCS(0); AutoShards(1<<20) != p {
		t.Fatalf("AutoShards(1<<20) = %d, want GOMAXPROCS = %d", AutoShards(1<<20), p)
	}
}
