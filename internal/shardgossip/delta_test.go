package shardgossip

import (
	"runtime"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestDeltaLoadsMatchRecompute pins the session's load writes, which take
// the loads every kernel sums as it places the jobs, and the barrier's
// aggregates against ground truth: after EVERY epoch of a 64-epoch
// run, each machine's cached load must exactly equal the sum of its job
// costs recomputed from scratch, and the barrier's reduced makespan / total
// load must equal a full O(m) fold over those recomputed loads. Every
// protocol runs, so every kernel's loads are checked. core.Cost is
// integral, so equality is exact — no tolerance.
func TestDeltaLoadsMatchRecompute(t *testing.T) {
	gen := rng.New(200)
	ty := workload.UniformTyped(gen, 11, 150, 3, 1, 50)
	tc := workload.UniformTwoCluster(gen, 6, 5, 130, 1, 40)
	rel := workload.UniformRelated(gen, 9, 120, 4, 1, 60)
	id := workload.UniformIdentical(gen, 10, 140, 1, 50)
	kcCosts := make([][]core.Cost, 3)
	for c := range kcCosts {
		kcCosts[c] = make([]core.Cost, 140)
		for j := range kcCosts[c] {
			kcCosts[c][j] = gen.IntRange(1, 40)
		}
	}
	kc, err := core.NewKCluster([]int{4, 3, 3}, kcCosts)
	if err != nil {
		t.Fatal(err)
	}
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
		{"related-ojtb/s=2", rel, protocol.OJTB{Model: rel}, 2},
		{"identical-samecost/s=2", id, protocol.SameCost{Model: id}, 2},
		{"kcluster-dlbkc/s=3", kc, protocol.DLBKC{Model: kc}, 3},
		{"identical-samecostminmove/s=2", id, protocol.SameCostMinMove{Model: id}, 2},
		{"twocluster-dlb2cminmove/s=3", tc, protocol.DLB2CMinMove{Model: tc}, 3},
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

// TestAutoShardHeuristic checks the Shards: 0 default: the engine gets
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
	if got, want := len(auto.shards), AutoShards(9); got != want {
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
