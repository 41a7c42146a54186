package gossip

import (
	"fmt"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// BenchmarkEngineStep measures the bare per-step cost of the sequential
// engine — pair selection, the step on the pair's two sorted job lists
// (merge, kernel, diff), moving the arrivals, bookkeeping — for every
// protocol, at the paper's scale (m=96, n=768) and at 10× that (m=960,
// n=7680). The per-step cost must be O(|union|), independent of n for a
// fixed jobs-per-machine density, and allocation-free in steady state;
// BENCH_3.json records the O(n) scan baseline next to the numbers of the
// job-index step that preceded the job lists.
func BenchmarkEngineStep(b *testing.B) {
	for _, sc := range []struct {
		name string
		mult int
	}{
		{"paper", 1}, // m=96, n=768: the paper's evaluation scale
		{"10x", 10},  // m=960, n=7680: where the O(n) scan dominated
	} {
		m := 96 * sc.mult
		n := 768 * sc.mult
		for _, pc := range stepBenchProtocols(m, n) {
			b.Run(fmt.Sprintf("%s/%s", pc.name, sc.name), func(b *testing.B) {
				a := core.RoundRobin(pc.model)
				e := New(pc.proto, a, Config{Seed: 7})
				// Settle into the steady state the figures run in: loads
				// near-balanced, scratch and job-list capacities at their
				// high-water marks.
				for s := 0; s < 4*m; s++ {
					e.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}

// BenchmarkEngineStepObserved is BenchmarkEngineStep with the full
// observability wiring enabled — a span recorder receiving one KindStep span
// per step and a timeline recorder sampling every step. The delta against
// BenchmarkEngineStep is the per-step cost of tracing when it is switched on
// (BENCH_6.json records both columns). TestEngineStepNoalloc holds the
// disabled path to 0 allocations at both sizes, and the repository
// benchmark's replicate workload (bench/), which CI's bench-ab job runs
// against the merge-base, times its DLB2C step end to end.
func BenchmarkEngineStepObserved(b *testing.B) {
	for _, sc := range []struct {
		name string
		mult int
	}{
		{"paper", 1},
		{"10x", 10},
	} {
		m := 96 * sc.mult
		n := 768 * sc.mult
		for _, pc := range stepBenchProtocols(m, n) {
			b.Run(fmt.Sprintf("%s/%s", pc.name, sc.name), func(b *testing.B) {
				a := core.RoundRobin(pc.model)
				e := New(pc.proto, a, Config{
					Seed:     7,
					Spans:    span.NewRecorder(1 << 12),
					Timeline: timeline.NewRecorder(1 << 10),
				})
				for s := 0; s < 4*m; s++ {
					e.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}

type stepBenchCase struct {
	name  string
	model core.CostModel
	proto protocol.Protocol
}

// stepBenchProtocols builds one instance per protocol at the given scale,
// from fixed seeds so re-runs and the recorded baseline are comparable.
func stepBenchProtocols(m, n int) []stepBenchCase {
	gen := rng.New(uint64(1000*m + n))
	id := workload.UniformIdentical(gen, m, n, 1, 1000)
	rel := workload.UniformRelated(gen, m, n, 8, 1, 1000)
	ty := workload.UniformTyped(gen, m, n, 8, 1, 1000)
	tc := workload.UniformTwoCluster(gen, 2*m/3, m/3, n, 1, 1000)
	kc := uniformKCluster(gen, 4, m/4, n, 1000)
	return []stepBenchCase{
		{"SameCost", id, protocol.SameCost{Model: id}},
		{"OJTB", rel, protocol.OJTB{Model: rel}},
		{"MJTB", ty, protocol.MJTB{Model: ty}},
		{"DLB2C", tc, protocol.DLB2C{Model: tc}},
		{"DLBKC", kc, protocol.DLBKC{Model: kc}},
	}
}

func uniformKCluster(gen *rng.RNG, k, perCluster, n int, hi core.Cost) *core.KCluster {
	sizes := make([]int, k)
	p := make([][]core.Cost, k)
	for c := 0; c < k; c++ {
		sizes[c] = perCluster
		p[c] = make([]core.Cost, n)
		for j := range p[c] {
			p[c][j] = gen.IntRange(1, hi)
		}
	}
	kc, err := core.NewKCluster(sizes, p)
	if err != nil {
		panic(err)
	}
	return kc
}
