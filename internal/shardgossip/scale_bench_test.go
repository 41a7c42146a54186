package shardgossip

import (
	"fmt"
	"runtime"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// benchSharded measures one steady-state epoch of the sharded engine — the
// coordinator's matching draw, ⌊m/2⌋ sessions, the barrier and its pass over
// the m loads — per protocol family and shard count, after warmUp. Results
// are recorded in BENCH_8.json; sessions/sec is the headline metric (one
// session is one pairwise exchange, the unit the paper counts).
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
				warmUp(e)
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

// The warm-up of benchSharded: quietEpochs epochs in a row that allocate
// nothing, or warmSessions sessions, whichever comes first.
const (
	quietEpochs  = 64
	warmSessions = 1 << 19
)

// warmUp steps e until quietEpochs epochs in a row allocate nothing, or
// until it has run warmSessions sessions. An epoch allocates when a session
// hands a machine more jobs than its job list has room for: New gives each
// list its machine's initial count plus a quarter (FillOrderedLists spreads
// the spare backing), and a list that outgrows that reallocates. Such
// growth grows rarer as the lists reach their high-water marks, but never
// stops outright. At m = 2048 and n = 16384 (8 jobs per list, room for 10)
// the twocluster engine at S=1 makes 1,253 allocations in its first 1,000
// epochs, against 2,074 with room for 8 only, but it still grows one at
// epoch 999, where with room for 8 the last came at epoch 224: a list
// passes 10 jobs more rarely than it passes 8, so its first growth comes
// later. The typed engine's last growth comes at epoch 234 (61 with room
// for 8). So at this size the warm-up ends at the session cap, and a
// measured epoch may still grow a list now and then (about 56 B/op over
// 200 twocluster epochs at S=1). The cap also keeps the 100k-machine run
// practical (ten warm epochs there, 512 at m = 2048).
func warmUp(e *Engine) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for quiet, sessions := 0, 0; quiet < quietEpochs && sessions < warmSessions; sessions += e.Machines() / 2 {
		before := ms.Mallocs
		e.StepEpoch()
		runtime.ReadMemStats(&ms)
		quiet++
		if ms.Mallocs != before {
			quiet = 0
		}
	}
}

// BenchmarkShardedStep is the headline scale benchmark: m = 100k machines,
// n = 10M jobs, typed and two-cluster, shards ∈ {1, 2, 4, 8}. One op is one
// epoch (50 000 sessions). It needs ~1 GB and minutes of wall clock, so it
// is skipped under -short. Re-record the curve with
//
//	go test -run='^$' -bench='BenchmarkShardedStep$' -benchmem -benchtime=3x \
//	    -timeout 50m ./internal/shardgossip/
func BenchmarkShardedStep(b *testing.B) {
	if testing.Short() {
		b.Skip("100k/10M scale benchmark skipped in short mode")
	}
	benchSharded(b, 100_000, 10_000_000)
}

// BenchmarkShardedStepScale is the CI-sized variant (m = 2048, n = 16384)
// that BENCH_8.json's "guard" column records — same code path and
// sub-benchmark shape, small enough for every CI run.
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
// the armed number), adding void bookkeeping and loss escrow. Recorded in
// BENCH_9.json next to the fault-free guard column.
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
// epochs are measured at increasing mean jobs-per-machine: every session
// steps its pair's union, moves nothing and writes nothing back.
func BenchmarkNoChangeTail(b *testing.B) {
	const m = 64
	for _, jpm := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("jobs-per-machine=%d", jpm), func(b *testing.B) {
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
			e.StepEpoch() // warm the measured path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.StepEpoch()
			}
		})
	}
}

// BenchmarkDrawMatching prices the coordinator's serial matching draw,
// drawMatching, at the machine counts of the benchmark's stable (64), churn
// (8192) and threshold (16384) workloads and of BenchmarkShardedStep
// (100k). One op is one epoch's draw; DESIGN.md §14 sets it against the
// epochs it opens.
func BenchmarkDrawMatching(b *testing.B) {
	for _, m := range []int{64, 8192, 16_384, 100_000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			gen, perm := rng.New(0), make([]int, m)
			for i := 0; i < b.N; i++ {
				drawMatching(gen, perm, 1, uint64(i))
			}
		})
	}
}
