// Root benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4). Each benchmark runs a reduced-but-faithful
// version of its experiment and reports the figure's headline quantity as a
// custom metric, so `go test -bench=.` regenerates the shape of the whole
// evaluation quickly; `hetlb figures -paper` runs the full-scale versions.
package hetlb_test

import (
	"fmt"
	"testing"

	"hetlb"
	"hetlb/internal/core"
	"hetlb/internal/experiments"
	"hetlb/internal/harness"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// BenchmarkTableI — Theorem 1: work stealing on the trap instance. Reports
// the achieved/optimal ratio at n=1000 (grows linearly in n; OPT stays 2).
func BenchmarkTableI(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI([]core.Cost{10, 100, 1000}, uint64(i))
		ratio = rows[len(rows)-1].Ratio
	}
	b.ReportMetric(ratio, "ratio@n=1000")
}

// BenchmarkTableII — Proposition 2: the pairwise-optimal trap. Reports the
// trap/OPT ratio at n=1000.
func BenchmarkTableII(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableII([]core.Cost{10, 100, 1000})
		last := rows[len(rows)-1]
		ratio = float64(last.TrapMakespan) / float64(last.Opt)
	}
	b.ReportMetric(ratio, "ratio@n=1000")
}

// BenchmarkFigure1 — Proposition 8: exhaustive exploration of the cycling
// instance. Reports the reachable state count (stable count is asserted 0).
func BenchmarkFigure1(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1()
		if !r.ProvenNonConvergent {
			b.Fatal("cycle instance regressed")
		}
		states = r.ReachableStates
	}
	b.ReportMetric(float64(states), "reachable-states")
}

// BenchmarkFigure2a — stationary makespan distribution, m=6, pmax ∈ {2,4}
// (pmax 8 and 16 are the full-scale `hetlb figures -paper` run). Reports the
// mode of the pmax=4 curve in normalized deviation units (the paper observes
// 0.5).
func BenchmarkFigure2a(b *testing.B) {
	var mode float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure2a([]int64{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		mode = curves[1].Mode
	}
	b.ReportMetric(mode, "mode@pmax=4")
}

// BenchmarkFigure2b — stationary distribution, pmax=4, m ∈ {3..6}. Reports
// the tail mass beyond 1.5·pmax for m=6 (the paper observes ≈0).
func BenchmarkFigure2b(b *testing.B) {
	var tail float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure2b([]int{3, 4, 5, 6})
		if err != nil {
			b.Fatal(err)
		}
		tail = curves[len(curves)-1].TailBeyond15
	}
	b.ReportMetric(tail, "tail>1.5@m=6")
}

// BenchmarkFigure3 — equilibrium makespan distributions, heterogeneous vs
// homogeneous (reduced systems). Reports the mean normalized deviation of
// each, which the paper observes to be low and similar.
func BenchmarkFigure3(b *testing.B) {
	cfgs := []experiments.SimConfig{
		experiments.PaperHetero().Reduced(),
		experiments.PaperHomogeneous().Reduced(),
	}
	var het, hom float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure3(cfgs)
		het, hom = res[0].Summary.Mean, res[1].Summary.Mean
	}
	b.ReportMetric(het, "mean-dev-hetero")
	b.ReportMetric(hom, "mean-dev-homog")
}

// BenchmarkFigure3Harness measures the replication harness itself on a
// paper-sized Figure 3 configuration (64+32 machines, 768 jobs, 8 runs):
// Sequential is the Parallelism=1 baseline, Parallel4 the 4-worker pool.
// Both produce identical results (see internal/experiments determinism
// tests); the sub-benchmark ratio is the harness's speedup.
func BenchmarkFigure3Harness(b *testing.B) {
	cfg := experiments.PaperHetero()
	cfg.Runs = 8
	cfgs := []experiments.SimConfig{cfg}
	run := func(b *testing.B, parallelism int) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res, err := experiments.Figure3With(harness.Options{Parallelism: parallelism}, cfgs)
			if err != nil {
				b.Fatal(err)
			}
			mean = res[0].Summary.Mean
		}
		b.ReportMetric(mean, "mean-dev")
	}
	b.Run("Sequential", func(b *testing.B) { run(b, 1) })
	b.Run("Parallel4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkFigure4 — makespan trajectories. Reports the equilibrium
// oscillation amplitude (normalized by the centralized makespan) of a
// heterogeneous run: small per the paper ("variations stay close to the
// minimum").
func BenchmarkFigure4(b *testing.B) {
	cfgs := []experiments.SimConfig{experiments.PaperHetero().Reduced()}
	var osc float64
	for i := 0; i < b.N; i++ {
		runs := experiments.Figure4(cfgs, 2)
		osc = runs[0].FinalOscillation
	}
	b.ReportMetric(osc, "oscillation")
}

// BenchmarkFigure5 — exchanges per machine to first reach 1.5×CLB2C.
// Reports the 90th percentile (the paper observes ≈5 at full scale).
func BenchmarkFigure5(b *testing.B) {
	cfgs := []experiments.SimConfig{experiments.PaperHetero().Reduced()}
	var p90 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(cfgs, 1.5)
		p90 = res[0].Summary.P90
	}
	b.ReportMetric(p90, "p90-exchanges")
}

// --- Ablation benches (DESIGN.md §5) -------------------------------------

// BenchmarkAblationSelectionUniform/Sweep compare pair-selection policies by
// the makespan reached after a fixed exchange budget on the same instances.
func BenchmarkAblationSelectionUniform(b *testing.B) {
	benchSelection(b, false)
}

// BenchmarkAblationSelectionSweep is the round-robin-initiator variant.
func BenchmarkAblationSelectionSweep(b *testing.B) {
	benchSelection(b, true)
}

func benchSelection(b *testing.B, sweep bool) {
	// Uses the public API plus internal gossip selection; constructed here
	// to keep the ablation self-contained.
	p0 := make([]hetlb.Cost, 192)
	p1 := make([]hetlb.Cost, 192)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*7919)%1000)
		p1[j] = hetlb.Cost(1 + (j*104729)%1000)
	}
	tc, err := hetlb.NewTwoCluster(16, 8, p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	var final hetlb.Cost
	for i := 0; i < b.N; i++ {
		final = runSelectionAblation(tc, uint64(i), sweep)
	}
	b.ReportMetric(float64(final)/hetlb.TwoClusterLowerBound(tc), "cmax/lb")
}

// BenchmarkEngineSequential and BenchmarkEngineSharded compare the two
// engines the facade offers at the same exchange budget (DESIGN.md §5).
func BenchmarkEngineSequential(b *testing.B) {
	tc := ablationInstance(b)
	for i := 0; i < b.N; i++ {
		initial := hetlb.RandomInitial(tc, uint64(i))
		if _, err := hetlb.DLB2C(tc, initial, hetlb.RunOptions{Seed: uint64(i), MaxExchanges: 24 * 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSharded is the sharded epoch engine's counterpart, at two
// shards.
func BenchmarkEngineSharded(b *testing.B) {
	tc := ablationInstance(b)
	for i := 0; i < b.N; i++ {
		initial := hetlb.RandomInitial(tc, uint64(i))
		if _, err := hetlb.DLB2C(tc, initial, hetlb.RunOptions{
			Seed: uint64(i), MaxExchanges: 24 * 10, Shards: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func ablationInstance(b *testing.B) *hetlb.TwoCluster {
	b.Helper()
	p0 := make([]hetlb.Cost, 192)
	p1 := make([]hetlb.Cost, 192)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*6151)%1000)
		p1[j] = hetlb.Cost(1 + (j*12289)%1000)
	}
	tc, err := hetlb.NewTwoCluster(16, 8, p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	return tc
}

// BenchmarkAblationMovesRebuild / MinMove quantify the paper's "minimize
// the number of tasks exchanged" future work: same budget, same instances;
// the metric is total job migrations plus final quality.
func BenchmarkAblationMovesRebuild(b *testing.B) {
	benchMoves(b, false)
}

// BenchmarkAblationMovesMinMove is the movement-minimizing variant.
func BenchmarkAblationMovesMinMove(b *testing.B) {
	benchMoves(b, true)
}

// BenchmarkCentralizedReferences compares the three centralized algorithms
// on the same two-cluster instance: the paper's CLB2C, the LST LP-rounding
// 2-approximation it cites, and the ECT greedy. Metrics are each
// algorithm's Cmax normalized by the fractional lower bound.
func BenchmarkCentralizedReferences(b *testing.B) {
	p0 := make([]hetlb.Cost, 96)
	p1 := make([]hetlb.Cost, 96)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*3571)%500)
		p1[j] = hetlb.Cost(1 + (j*9173)%500)
	}
	tc, err := hetlb.NewTwoCluster(6, 3, p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	lb := hetlb.TwoClusterLowerBound(tc)
	var clb, lst, ect hetlb.Cost
	for i := 0; i < b.N; i++ {
		clb = hetlb.CLB2C(tc).Makespan()
		a, _, err := hetlb.LST(tc)
		if err != nil {
			b.Fatal(err)
		}
		lst = a.Makespan()
		ect = hetlb.ListScheduling(tc).Makespan()
	}
	b.ReportMetric(float64(clb)/lb, "clb2c/lb")
	b.ReportMetric(float64(lst)/lb, "lst/lb")
	b.ReportMetric(float64(ect)/lb, "ect/lb")
}

// BenchmarkMessagePassingLatency measures how network latency stretches the
// message-passing runtime's convergence (final Cmax/LB at a fixed horizon).
func BenchmarkMessagePassingLatency1(b *testing.B) { benchNetLatency(b, 1) }

// BenchmarkMessagePassingLatency20 is the high-latency variant.
func BenchmarkMessagePassingLatency20(b *testing.B) { benchNetLatency(b, 20) }

// BenchmarkGossipBare / BenchmarkGossipObserved quantify the cost of full
// observability (metrics registry, span trace and timeline) on the
// sequential engine. The record path is allocation-free by construction, so
// the gap should stay within a few percent; the measured number is
// documented in README.md.
func BenchmarkGossipBare(b *testing.B) {
	benchGossipObserved(b, false)
}

// BenchmarkGossipObserved is the fully instrumented variant.
func BenchmarkGossipObserved(b *testing.B) {
	benchGossipObserved(b, true)
}

func benchGossipObserved(b *testing.B, observed bool) {
	tc := ablationInstance(b)
	var opt hetlb.RunOptions
	if observed {
		opt.Metrics = hetlb.NewMetricsRegistry()
		opt.Spans = hetlb.NewSpanTrace(1 << 16)
		opt.Timeline = hetlb.NewTimeline(1 << 12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		initial := hetlb.RandomInitial(tc, uint64(i))
		opt.Seed, opt.MaxExchanges = uint64(i), 24*10
		if _, err := hetlb.DLB2C(tc, initial, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// stableShape draws the stable workload's instance shape: m1+m1 machines and
// n jobs whose costs on either cluster are uniform in [1, 1000].
func stableShape(m1, n int) *hetlb.TwoCluster {
	return workload.UniformTwoCluster(rng.New(7), m1, m1, n, 1, 1000)
}

// BenchmarkTimeToStable times DLB2C from RoundRobin to a verified-stable
// schedule through hetlb.DLB2C with DetectStability, on 32+32 machines and
// 512 jobs: the sequential engine (Shards 0, uniform initiators) against the
// sharded one (Shards 2, random matchings). The two schedules converge at
// different rates, so each reports the exchanges and job moves it needed.
func BenchmarkTimeToStable(b *testing.B) {
	tc := stableShape(32, 512)
	for _, shards := range []int{0, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var res hetlb.Result
			var moves int64
			for i := 0; i < b.N; i++ {
				reg := hetlb.NewMetricsRegistry()
				var err error
				res, err = hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
					Seed: 3, MaxExchanges: 1 << 22, DetectStability: true, Shards: shards, Metrics: reg,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("no stable schedule after %d exchanges", res.Exchanges)
				}
				moves = reg.Counter("gossip_moves_total", "").Value() + reg.Counter("shardgossip_moves_total", "").Value()
			}
			b.ReportMetric(float64(res.Exchanges), "exchanges")
			b.ReportMetric(float64(moves), "moves")
		})
	}
}

// BenchmarkIsStable times hetlb.IsStable on a stable DLB2C schedule, which
// is a full scan of every machine pair, at 32+32 machines / 512 jobs and
// 128+128 / 2048.
func BenchmarkIsStable(b *testing.B) {
	for _, size := range []struct{ m1, n int }{{32, 512}, {128, 2048}} {
		b.Run(fmt.Sprintf("m=%d,n=%d", 2*size.m1, size.n), func(b *testing.B) {
			tc := stableShape(size.m1, size.n)
			a := stableSchedule(b, tc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !hetlb.IsStable(tc, a) {
					b.Fatal("the converged schedule is not stable")
				}
			}
			m := tc.NumMachines()
			b.ReportMetric(float64(m*(m-1)/2), "pairs")
		})
	}
}

// stableSchedule runs the sharded DLB2C from RoundRobin until a seed reaches
// a verified-stable schedule (Proposition 8: not every run does).
func stableSchedule(b *testing.B, tc *hetlb.TwoCluster) *hetlb.Assignment {
	b.Helper()
	for seed := uint64(1); seed <= 8; seed++ {
		res, err := hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
			Seed: seed, MaxExchanges: 2000 * tc.NumMachines(), DetectStability: true, Shards: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged {
			return res.Assignment
		}
	}
	b.Fatal("no seed reached a stable schedule")
	return nil
}
