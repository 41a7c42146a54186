package experiments

import (
	"sort"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/harness"
	"hetlb/internal/plot"
	"hetlb/internal/stats"
)

// Figure5Result is one configuration's "time to reach 1.5× the centralized
// makespan" study. The paper reports the distribution, over machines, of
// the number of pairwise exchanges each machine had participated in when
// the system's makespan first dropped below the threshold — normalized so
// that "5 exchanges per machine" is comparable across system sizes.
type Figure5Result struct {
	Config SimConfig
	// Threshold factor relative to the centralized reference (1.5 in the
	// paper).
	Factor float64
	// PerMachineExchanges collects, over all runs and machines, each
	// machine's exchange count at the first crossing.
	PerMachineExchanges []float64
	// CrossedRuns / TotalRuns report how many runs reached the threshold
	// within the budget at all.
	CrossedRuns, TotalRuns int
	// GlobalStepsPerMachine collects, per crossed run, the total step
	// count at crossing divided by the machine count.
	GlobalStepsPerMachine []float64
	// Summary summarizes PerMachineExchanges.
	Summary stats.Summary
}

// figure5Run is one replication's contribution, merged in index order.
type figure5Run struct {
	Crossed bool
	// PerMachine holds each machine's exchange count at the first crossing
	// (all zeros when the run started below the threshold).
	PerMachine []float64
	// Global is the run's total step count at crossing divided by the
	// machine count; HasGlobal reports whether it is meaningful.
	Global    float64
	HasGlobal bool
}

// Figure5 measures time-to-threshold for each configuration.
func Figure5(cfgs []SimConfig, factor float64) []Figure5Result {
	return must(Figure5With(harness.Options{}, cfgs, factor))
}

// Figure5With is Figure5 with explicit harness options; run r of a
// configuration is keyed by (cfg.Seed+2000, r).
func Figure5With(opt harness.Options, cfgs []SimConfig, factor float64) ([]Figure5Result, error) {
	out := make([]Figure5Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		cfg := cfg
		runs, err := harness.Map(opt, cfg.Seed+2000, cfg.Runs, func(rep *harness.Rep) (figure5Run, error) {
			gen := rep.RNG
			inst := cfg.build(gen)
			a := randomInitial(gen, inst.model)
			threshold := core.Cost(factor * float64(inst.cent))
			w := &thresholdWatcher{threshold: threshold}
			e := newEngine(inst, a, gen.Uint64())
			e.Observe(w)
			if a.Makespan() <= threshold {
				// Already below at start: every machine needed 0
				// exchanges (the paper notes this is common in the
				// homogeneous case).
				return figure5Run{
					Crossed:    true,
					PerMachine: make([]float64, cfg.Machines()),
					HasGlobal:  true,
				}, nil
			}
			e.Run(cfg.StepsPerMachine*cfg.Machines(), false)
			if !w.crossed {
				return figure5Run{}, nil
			}
			r := figure5Run{Crossed: true}
			for _, c := range w.exchangesAtCross {
				r.PerMachine = append(r.PerMachine, float64(c))
			}
			r.Global, r.HasGlobal = w.exchangesPerMachine(cfg.Machines())
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		res := Figure5Result{Config: cfg, Factor: factor, TotalRuns: cfg.Runs}
		for _, r := range runs {
			if !r.Crossed {
				continue
			}
			res.CrossedRuns++
			res.PerMachineExchanges = append(res.PerMachineExchanges, r.PerMachine...)
			if r.HasGlobal {
				res.GlobalStepsPerMachine = append(res.GlobalStepsPerMachine, r.Global)
			}
		}
		res.Summary = stats.Summarize(res.PerMachineExchanges)
		out = append(out, res)
	}
	return out, nil
}

// thresholdWatcher is the Figure 5 probe: a gossip.Observer that records the
// first step at which the makespan drops to or below threshold, with a copy
// of the per-machine exchange counts at that step. Later steps change
// neither.
type thresholdWatcher struct {
	threshold core.Cost
	// crossed reports whether the threshold was reached; firstStep is the
	// 0-based step of the first crossing.
	crossed   bool
	firstStep int
	// exchangesAtCross is a copy of the per-machine exchange counts at the
	// crossing.
	exchangesAtCross []int
}

// OnStep implements gossip.Observer.
func (t *thresholdWatcher) OnStep(e gossip.Stepper, step, _, _ int) {
	if t.crossed || e.Makespan() > t.threshold {
		return
	}
	t.crossed = true
	t.firstStep = step
	t.exchangesAtCross = append([]int(nil), e.Exchanges()...)
}

// exchangesPerMachine returns the steps taken up to the crossing divided by
// the machine count, the x-axis unit of Figure 5, and ok = false when the
// threshold was never crossed.
func (t *thresholdWatcher) exchangesPerMachine(machines int) (float64, bool) {
	if !t.crossed || machines == 0 {
		return 0, false
	}
	return float64(t.firstStep+1) / float64(machines), true
}

// CDFSeries renders each configuration's per-machine exchange counts as an
// empirical CDF (the Figure 5 axes: x = exchanges per machine, y = fraction
// of machines that had reached the threshold by then).
func Figure5CDFSeries(results []Figure5Result) []plot.Series {
	out := make([]plot.Series, 0, len(results))
	for _, r := range results {
		xs := append([]float64(nil), r.PerMachineExchanges...)
		sort.Float64s(xs)
		var px, py []float64
		n := float64(len(xs))
		for k, x := range xs {
			if k > 0 && x == xs[k-1] {
				py[len(py)-1] = float64(k+1) / n
				continue
			}
			px = append(px, x)
			py = append(py, float64(k+1)/n)
		}
		out = append(out, plot.NewSeries(r.Config.Name, px, py))
	}
	return out
}
