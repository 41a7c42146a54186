package shardgossip

import (
	"fmt"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// benchSharded measures one epoch of the sharded engine — pipelined schedule
// handoff, ⌊m/2⌋ sessions, the barrier and its pass over the m loads — per
// protocol family and shard count. Results are recorded in BENCH_8.json; sessions/sec is the
// headline metric (one session is one pairwise exchange, the unit the paper
// counts).
func benchSharded(b *testing.B, m, n int) {
	gen := rng.New(500)
	ty := workload.UniformTyped(gen, m, n, 5, 1, 100)
	tc := workload.UniformTwoCluster(gen, m/2, m-m/2, n, 1, 100)
	cases := []struct {
		name  string
		model core.CostModel
		proto protocol.Protocol
	}{
		{"typed", ty, protocol.MJTB{Model: ty}},
		{"twocluster", tc, protocol.DLB2C{Model: tc}},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(b *testing.B) {
				e, err := New(c.proto, core.RoundRobin(c.model), Config{Seed: 1, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				// Two warm epochs bring scratches and job buffers to their
				// high-water capacities; the measured epochs are steady-state.
				e.StepEpoch()
				e.StepEpoch()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.StepEpoch()
				}
				b.StopTimer()
				sessions := float64(m/2) * float64(b.N)
				b.ReportMetric(sessions/b.Elapsed().Seconds(), "sessions/sec")
			})
		}
	}
}

// BenchmarkShardedStep is the headline scale benchmark: m = 100k machines,
// n = 10M jobs, typed and two-cluster, shards ∈ {1, 2, 4, 8}. One op is one
// epoch (50 000 sessions). It needs ~1 GB and minutes of wall clock, so it
// is skipped under -short and run via `make bench-scale`.
func BenchmarkShardedStep(b *testing.B) {
	if testing.Short() {
		b.Skip("100k/10M scale benchmark skipped in short mode")
	}
	benchSharded(b, 100_000, 10_000_000)
}

// BenchmarkShardedStepScale is the CI-sized guard variant (m = 2048,
// n = 16384) gated by benchguard against BENCH_8.json's "guard" column —
// same code path and sub-benchmark shape, small enough for every CI run.
func BenchmarkShardedStepScale(b *testing.B) {
	benchSharded(b, 2048, 16_384)
}

// BenchmarkShardedStepFaults prices the crash-tolerant path at the CI guard
// size (m = 2048, n = 16384, typed, shards = 4). "armed" runs with a fault
// plan whose crashes never fire inside the measured window: every session
// pays the down-set endpoint check and every epoch the transition scan, so
// the delta against the fault-free guard column is the whole cost of arming
// a plan. "churn" fires a crash or recovery every couple of epochs
// (horizon 4096 — longer -benchtime runs drain the plan and decay toward
// the armed number), adding void bookkeeping, loss escrow and latch
// invalidation. Recorded in BENCH_9.json next to the fault-free guard
// column, which benchguard gates against BENCH_8's within 5%.
func BenchmarkShardedStepFaults(b *testing.B) {
	const m, n = 2048, 16_384
	plans := []struct {
		name string
		plan []faults.Crash
	}{
		{"armed", []faults.Crash{
			{Machine: 0, At: 1 << 40, RecoverAt: 1<<40 + 1},
			{Machine: 1, At: 1 << 40, RecoverAt: 1<<40 + 1},
		}},
		{"churn", faults.RandomCrashes(77, m, 4096, 2048, 64, 0.25)},
	}
	for _, p := range plans {
		b.Run(fmt.Sprintf("%s/shards=4", p.name), func(b *testing.B) {
			gen := rng.New(500)
			ty := workload.UniformTyped(gen, m, n, 5, 1, 100)
			e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty),
				Config{Seed: 1, Shards: 4, Faults: &faults.Config{Crashes: p.plan}})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			e.StepEpoch()
			e.StepEpoch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.StepEpoch()
			}
			b.StopTimer()
			sessions := float64(m/2) * float64(b.N)
			b.ReportMetric(sessions/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

// BenchmarkNoChangeTail measures the converged steady state — the long
// no-change tail every gossip run ends in. A single-type OJTB instance is
// driven to a verified-stable placement once (outside the timer), then
// epochs are measured at increasing mean jobs-per-machine. With the
// verified-stable fast path a session is O(1) bookkeeping, so ns/op must be
// flat in jobs-per-machine; before this optimization each session resummed
// its O(union) pooled jobs even when nothing moved. The unlatched variant
// (stable detection off) shows the no-change session alone: the kernel
// still splits the union, but nothing is written back.
func BenchmarkNoChangeTail(b *testing.B) {
	const m = 64
	for _, mode := range []string{"latched", "delta-only"} {
		for _, jpm := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("%s/jobs-per-machine=%d", mode, jpm), func(b *testing.B) {
				speeds := make([][]core.Cost, m)
				gen := rng.New(600)
				for i := range speeds {
					speeds[i] = []core.Cost{gen.IntRange(2, 9)}
				}
				ty, err := core.NewTyped(speeds, make([]int, m*jpm))
				if err != nil {
					b.Fatal(err)
				}
				e, err2 := New(protocol.OJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 9, Shards: 2})
				if err2 != nil {
					b.Fatal(err2)
				}
				defer e.Close()
				res := e.Run(50_000_000, true)
				if !res.Converged {
					b.Fatal("instance did not converge; the tail benchmark needs a stable placement")
				}
				if mode == "delta-only" {
					// Measure the pre-latch no-op path: kernels run, move
					// nothing, and the session applies zero deltas.
					e.stable = false
				}
				e.StepEpoch() // warm the measured path
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.StepEpoch()
				}
			})
		}
	}
}
