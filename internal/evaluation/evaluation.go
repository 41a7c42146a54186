// Package evaluation regenerates the paper's full evaluation — Tables I/II,
// Figures 1–5 and the repo's extension studies — through the replication
// harness. It is the implementation behind the `hetlb figures` command
// (full scale with -paper): each step prints its table/ASCII rendering,
// writes a tidy CSV, and runs its replications on the harness worker pool,
// so one --parallel flag accelerates the whole evaluation without changing
// a single number (see the harness determinism contract).
package evaluation

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hetlb/internal/core"
	"hetlb/internal/experiments"
	"hetlb/internal/harness"
	"hetlb/internal/plot"
	"hetlb/internal/stats"
)

// Config parameterizes one evaluation run.
type Config struct {
	// OutDir receives the CSV files; empty disables CSV output.
	OutDir string
	// Reduced runs the scaled-down configurations (the same structure at a
	// fraction of the size — suitable for smoke tests and CI) instead of
	// the paper-scale ones.
	Reduced bool
	// Full additionally includes the most expensive configurations
	// (Figure 2a with pmax=16, Figure 5 with the 512+256 system). Ignored
	// when Reduced is set.
	Full bool
	// Seed is the base random seed; each step derives its own offset from
	// it exactly as the original drivers did.
	Seed uint64
	// Harness configures the replication runner for every step:
	// parallelism, deadline, metrics, trace, progress.
	Harness harness.Options
	// Out receives the textual rendering; nil means os.Stdout.
	Out io.Writer
}

// StepNames returns the canonical step order ("all" runs them all).
func StepNames() []string {
	return []string{"tableI", "tableII", "fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5", "extk", "extdyn", "residual", "chaos"}
}

// Run executes the named step ("all" for the whole evaluation) under cfg.
func Run(cfg Config, which string) error {
	r := runner{cfg: cfg, out: cfg.Out}
	if r.out == nil {
		r.out = os.Stdout
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return err
		}
	}
	steps := map[string]func() error{
		"tableI":   r.tableI,
		"tableII":  r.tableII,
		"fig1":     r.figure1,
		"fig2a":    r.figure2a,
		"fig2b":    r.figure2b,
		"fig3":     r.figure3,
		"fig4":     r.figure4,
		"fig5":     r.figure5,
		"extk":     r.extKClusters,
		"extdyn":   r.extDynamic,
		"residual": r.residual,
		"chaos":    r.chaos,
	}
	if which != "all" {
		f, ok := steps[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want all or one of %s)", which, strings.Join(StepNames(), ", "))
		}
		return f()
	}
	for _, name := range StepNames() {
		if err := steps[name](); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

type runner struct {
	cfg Config
	out io.Writer
}

func (r runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

func (r runner) writeCSV(name string, series []plot.Series) error {
	if r.cfg.OutDir == "" {
		return nil
	}
	path := filepath.Join(r.cfg.OutDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := plot.WriteCSV(f, series); err != nil {
		return err
	}
	r.printf("  wrote %s\n", path)
	return nil
}

func (r runner) tableI() error {
	r.printf("== Table I / Theorem 1: work stealing on the trap instance ==\n")
	ns := []core.Cost{10, 100, 1000, 10000, 100000}
	if r.cfg.Reduced {
		ns = []core.Cost{10, 100, 1000}
	}
	rows, err := experiments.TableIWith(r.cfg.Harness, ns, r.cfg.Seed)
	if err != nil {
		return err
	}
	var trows [][]string
	var xs, ys []float64
	for _, row := range rows {
		trows = append(trows, []string{
			fmt.Sprint(row.N), fmt.Sprint(row.FirstSteal), fmt.Sprint(row.Makespan),
			fmt.Sprint(row.Opt), fmt.Sprintf("%.1f", row.Ratio),
		})
		xs = append(xs, float64(row.N))
		ys = append(ys, row.Ratio)
	}
	r.printf("%s", plot.Table([]string{"n", "first steal", "WS makespan", "OPT", "ratio"}, trows))
	r.printf("shape check: first steal at n, makespan n+1, OPT 2 → unbounded ratio ✓\n")
	return r.writeCSV("tableI.csv", []plot.Series{plot.NewSeries("ws-ratio", xs, ys)})
}

func (r runner) tableII() error {
	r.printf("== Table II / Proposition 2: pairwise-optimal trap ==\n")
	ns := []core.Cost{10, 100, 1000, 10000}
	if r.cfg.Reduced {
		ns = []core.Cost{10, 100, 1000}
	}
	rows, err := experiments.TableIIWith(r.cfg.Harness, ns)
	if err != nil {
		return err
	}
	var trows [][]string
	var xs, ys []float64
	for _, row := range rows {
		trows = append(trows, []string{
			fmt.Sprint(row.N), fmt.Sprint(row.TrapMakespan), fmt.Sprint(row.Opt),
			fmt.Sprint(row.PairwiseOptimal),
		})
		xs = append(xs, float64(row.N))
		ys = append(ys, float64(row.TrapMakespan)/float64(row.Opt))
	}
	r.printf("%s", plot.Table([]string{"n", "trap Cmax", "OPT", "pairwise-optimal"}, trows))
	return r.writeCSV("tableII.csv", []plot.Series{plot.NewSeries("trap-ratio", xs, ys)})
}

func (r runner) figure1() error {
	r.printf("== Figure 1 / Proposition 8: DLB2C non-convergence ==\n")
	res, err := experiments.Figure1With(r.cfg.Harness)
	if err != nil {
		return err
	}
	r.printf("reachable schedules: %d, stable: %d, proven non-convergent: %v\n",
		res.ReachableStates, res.StableStates, res.ProvenNonConvergent)
	r.printf("explicit cycle (length %d):\n", len(res.CycleStates)-1)
	for k, s := range res.CycleStates {
		r.printf("  step %d: %s\n", k, s)
	}
	xs := make([]float64, len(res.CycleMakespans))
	ys := make([]float64, len(res.CycleMakespans))
	for k, v := range res.CycleMakespans {
		xs[k] = float64(k)
		ys[k] = float64(v)
	}
	return r.writeCSV("figure1.csv", []plot.Series{plot.NewSeries("cycle-makespan", xs, ys)})
}

func (r runner) figure2a() error {
	r.printf("== Figure 2(a): stationary makespan pdf, m=6, varying pmax ==\n")
	pmaxes := []int64{2, 4, 8}
	switch {
	case r.cfg.Reduced:
		pmaxes = []int64{2, 4}
	case r.cfg.Full:
		pmaxes = append(pmaxes, 16)
		r.printf("(-full: including pmax=16, ~1.8M states; this takes several minutes)\n")
	}
	curves, err := experiments.Figure2aWith(r.cfg.Harness, pmaxes)
	if err != nil {
		return err
	}
	series := experiments.Figure2Series(curves)
	r.printf("%s", plot.ASCII("P(Cmax) vs normalized deviation (Cmax-⌈ΣP/m⌉)/pmax", series, 64, 16))
	for _, c := range curves {
		r.printf("  pmax=%-3d states=%-8d mode=%.2f tail>1.5: %.4f\n", c.PMax, c.States, c.Mode, c.TailBeyond15)
	}
	return r.writeCSV("figure2a.csv", series)
}

func (r runner) figure2b() error {
	r.printf("== Figure 2(b): stationary makespan pdf, pmax=4, varying m ==\n")
	ms := []int{3, 4, 5, 6}
	if r.cfg.Reduced {
		ms = []int{3, 4}
	}
	curves, err := experiments.Figure2bWith(r.cfg.Harness, ms)
	if err != nil {
		return err
	}
	series := experiments.Figure2Series(curves)
	r.printf("%s", plot.ASCII("P(Cmax) vs normalized deviation", series, 64, 16))
	for _, c := range curves {
		r.printf("  m=%-2d states=%-8d mode=%.2f tail>1.5: %.4f\n", c.M, c.States, c.Mode, c.TailBeyond15)
	}
	return r.writeCSV("figure2b.csv", series)
}

// simConfigs returns the hetero/homogeneous pair every simulation figure
// uses, at the configured scale, with the per-figure seed offsets of the
// original drivers.
func (r runner) simConfigs() []experiments.SimConfig {
	het := experiments.PaperHetero()
	hom := experiments.PaperHomogeneous()
	if r.cfg.Reduced {
		het = het.Reduced()
		hom = hom.Reduced()
	}
	het.Seed, hom.Seed = r.cfg.Seed+10, r.cfg.Seed+20
	return []experiments.SimConfig{het, hom}
}

func (r runner) figure3() error {
	r.printf("== Figure 3: equilibrium makespan distribution, hetero vs homog ==\n")
	results, err := experiments.Figure3With(r.cfg.Harness, r.simConfigs())
	if err != nil {
		return err
	}
	var series []plot.Series
	for _, res := range results {
		h := res.Histogram(0, 3, 24)
		var xs, ys []float64
		for k := range h.Counts {
			xs = append(xs, h.BinCenter(k))
			ys = append(ys, h.Density(k))
		}
		series = append(series, plot.NewSeries(res.Config.Name, xs, ys))
		r.printf("  %-22s %s\n", res.Config.Name, res.Summary)
	}
	r.printf("%s", plot.ASCII("density of (Cmax-LB)/pmax after 30 exchanges/machine", series, 64, 14))
	return r.writeCSV("figure3.csv", series)
}

func (r runner) figure4() error {
	r.printf("== Figure 4: makespan trajectories over exchanges ==\n")
	runs, err := experiments.Figure4With(r.cfg.Harness, r.simConfigs(), 2)
	if err != nil {
		return err
	}
	series := experiments.Figure4Series(runs)
	r.printf("%s", plot.ASCII("Cmax/centralized vs exchanges per machine", series, 64, 14))
	for _, run := range runs {
		r.printf("  %-22s run %d: min %.3f, equilibrium oscillation %.3f\n",
			run.Config.Name, run.Run, run.MinReached, run.FinalOscillation)
	}
	return r.writeCSV("figure4.csv", series)
}

func (r runner) figure5() error {
	r.printf("== Figure 5: exchanges per machine to first reach 1.5×cent ==\n")
	cfgs := r.simConfigs()
	if r.cfg.Full && !r.cfg.Reduced {
		large := experiments.PaperHeteroLarge()
		large.Seed = r.cfg.Seed + 30
		cfgs = append(cfgs, large)
		r.printf("(-full: including the 512+256 system)\n")
	}
	results, err := experiments.Figure5With(r.cfg.Harness, cfgs, 1.5)
	if err != nil {
		return err
	}
	series := experiments.Figure5CDFSeries(results)
	r.printf("%s", plot.ASCII("CDF over machines of exchanges at first crossing", series, 64, 14))
	for _, res := range results {
		r.printf("  %-22s crossed %d/%d runs; per-machine exchanges: %s\n",
			res.Config.Name, res.CrossedRuns, res.TotalRuns, res.Summary)
	}
	return r.writeCSV("figure5.csv", series)
}

func (r runner) extKClusters() error {
	r.printf("== Extension: DLBKC equilibrium quality vs number of clusters ==\n")
	ks := []int{2, 3, 4, 6}
	mpc, jobs, hi, runs, steps := 8, 384, core.Cost(1000), 10, 30
	if r.cfg.Reduced {
		ks = []int{2, 3}
		mpc, jobs, hi, runs, steps = 3, 72, 50, 3, 20
	}
	results, err := experiments.ExtKClustersWith(r.cfg.Harness, ks, mpc, jobs, hi, runs, steps, r.cfg.Seed+40)
	if err != nil {
		return err
	}
	for _, res := range results {
		r.printf("  k=%d: Cmax/LP-LB %s\n", res.K, res.Summary)
	}
	series := experiments.ExtKClustersSeries(results)
	r.printf("%s", plot.ASCII("equilibrium Cmax / LP fractional LB vs k", series, 64, 12))
	return r.writeCSV("ext_kclusters.csv", series)
}

func (r runner) extDynamic() error {
	r.printf("== Extension: periodic balancing during execution (Section IV mode) ==\n")
	periods := []int64{0, 50, 10, 2}
	m1, m2, jobs, hi, inter, runs := 16, 8, 384, core.Cost(1000), 2.0, 10
	if r.cfg.Reduced {
		periods = []int64{0, 5}
		m1, m2, jobs, hi, inter, runs = 3, 3, 60, 50, 1.0, 3
	}
	results, err := experiments.ExtDynamicWith(r.cfg.Harness, periods, m1, m2, jobs, hi, inter, runs, r.cfg.Seed+50)
	if err != nil {
		return err
	}
	r.printf("%s", experiments.ExtDynamicTable(results))
	var xs, ys []float64
	for _, res := range results {
		xs = append(xs, float64(res.BalanceEvery))
		ys = append(ys, res.MeanFlow)
	}
	series := []plot.Series{plot.NewSeries("mean flow vs balance period (0 = off)", xs, ys)}
	return r.writeCSV("ext_dynamic.csv", series)
}

func (r runner) residual() error {
	r.printf("== Ablation: measured residual imbalance vs the Markov model's uniform assumption ==\n")
	m, jobs, hi, steps := 96, 768, core.Cost(1000), 20000
	if r.cfg.Reduced {
		m, jobs, hi, steps = 8, 64, 100, 2000
	}
	res, err := experiments.ResidualCheckWith(r.cfg.Harness, m, jobs, 1, hi, steps, r.cfg.Seed+60)
	if err != nil {
		return err
	}
	r.printf("  %d balancing steps measured on the %d-machine/%d-job system\n", res.Samples, m, jobs)
	r.printf("  normalized residual |Δload|/pmax_pool: %s\n", res.Summary)
	r.printf("  model assumes uniform {0..pmax} (mean 0.5); measured mean %.2f → model is conservative\n",
		res.Summary.Mean)
	h := stats.NewHistogram(0, 1.0001, 20)
	for _, v := range res.Normalized {
		h.Add(v)
	}
	var xs, ys []float64
	for k := range h.Counts {
		xs = append(xs, h.BinCenter(k))
		ys = append(ys, h.Density(k))
	}
	return r.writeCSV("residual.csv", []plot.Series{plot.NewSeries("measured residual density", xs, ys)})
}

func (r runner) chaos() error {
	r.printf("== Robustness: DLB2C under message loss and machine churn ==\n")
	cfg := experiments.PaperChaos()
	if r.cfg.Reduced {
		cfg = cfg.Reduced()
	}
	cfg.Seed = r.cfg.Seed + 70
	results, err := experiments.ChaosWith(r.cfg.Harness, cfg)
	if err != nil {
		return err
	}
	r.printf("%s", experiments.ChaosTable(results))
	series := experiments.ChaosSeries(results, cfg.Horizon)
	r.printf("%s", plot.ASCII("mean virtual time to 1.1×cent vs loss rate (horizon = never)", series, 64, 12))
	return r.writeCSV("chaos.csv", series)
}
