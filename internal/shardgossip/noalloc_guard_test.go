package shardgossip

import (
	"fmt"
	"runtime"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestStepEpochNoalloc is the dynamic half of the //hetlb:noalloc contract
// on the per-worker session path (the static half is hetlbvet's noalloc
// analyzer): once scratches, ownership lists and job buffers are at their
// high-water capacities, a whole epoch — schedule draw, worker fan-out,
// every session, barrier reduction — must not allocate. PR-3's steady-state
// guarantees survive the sharded refactor only if this holds at S > 1 too,
// where the epoch crosses goroutines.
func TestStepEpochNoalloc(t *testing.T) {
	gen := rng.New(300)
	ty := workload.UniformTyped(gen, 64, 512, 3, 1, 50)
	tc := workload.UniformTwoCluster(gen, 32, 32, 512, 1, 50)
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
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-s%d", c.name, shards), func(t *testing.T) {
				e, err := New(c.proto, core.RoundRobin(c.model), Config{Seed: 5, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				// Warm far past the measurement window so a late high-water
				// bump cannot land inside it.
				for epoch := 0; epoch < 50; epoch++ {
					e.StepEpoch()
				}
				if allocs := testing.AllocsPerRun(100, func() { e.StepEpoch() }); allocs != 0 {
					t.Errorf("StepEpoch (%s, shards=%d): %.3f allocs/run, want 0", c.name, shards, allocs)
				}
			})
		}
	}
}

// TestFirstEpochsListGrowth bounds the allocations of a fresh engine's first
// epochs, before its lists reach their high-water marks: New gives every
// job list room to grow by a quarter of its initial count, so a session
// that hands a machine a few more jobs than it started with writes into
// that room instead of reallocating the list. A fresh RoundRobin DLB2C
// engine at the threshold workload's list length (m = 2048, 100 jobs per
// machine, costs U[1,1000], S = 1) must make fewer than m/8 allocations
// over its first four epochs (it makes about 180); with lists cut to their
// exact counts it made 1,660, about 0.8·m, nearly all of them list
// reallocations.
func TestFirstEpochsListGrowth(t *testing.T) {
	const m = 2048
	tc := workload.UniformTwoCluster(rng.New(41), m/2, m/2, 100*m, 1, 1000)
	e, err := New(protocol.DLB2C{Model: tc}, core.RoundRobin(tc), Config{Seed: 7, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for epoch := 0; epoch < 4; epoch++ {
		e.StepEpoch()
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs >= m/8 {
		t.Errorf("the first four epochs made %d allocations, want fewer than %d", allocs, m/8)
	}
}
