package experiments

import (
	"fmt"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/harness"
	"hetlb/internal/plot"
)

// Figure4Run is one makespan trajectory (Figure 4 of the paper shows that
// runs quickly reach a plateau and oscillate around it without converging).
type Figure4Run struct {
	Config SimConfig
	Run    int
	// ExchangesPerMachine is the x axis: step/machines at each sample.
	ExchangesPerMachine []float64
	// MakespanOverCent is Cmax normalized by the centralized reference so
	// heterogeneous and homogeneous runs share an axis.
	MakespanOverCent []float64
	// MinReached is the best normalized makespan seen during the run.
	MinReached float64
	// FinalOscillation is (max − min) of the normalized makespan over the
	// last quarter of the run — the amplitude of the equilibrium
	// oscillation.
	FinalOscillation float64
}

// Figure4 records runsPerCfg trajectories per configuration, sampling the
// makespan every machine-count steps (≈ once per "exchange per machine").
func Figure4(cfgs []SimConfig, runsPerCfg int) []Figure4Run {
	return must(Figure4With(harness.Options{}, cfgs, runsPerCfg))
}

// Figure4With is Figure4 with explicit harness options. Trajectory r of a
// configuration is keyed by (cfg.Seed+1000, r) and recorded in index order.
func Figure4With(opt harness.Options, cfgs []SimConfig, runsPerCfg int) ([]Figure4Run, error) {
	var out []Figure4Run
	for _, cfg := range cfgs {
		cfg := cfg
		runs, err := harness.Map(opt, cfg.Seed+1000, runsPerCfg, func(rep *harness.Rep) (Figure4Run, error) {
			gen := rep.RNG
			inst := cfg.build(gen)
			a := randomInitial(gen, inst.model)
			e := newEngine(inst, a, gen.Uint64())
			rec := &makespanSeries{sampleEvery: cfg.Machines()}
			e.Observe(rec)
			e.Run(cfg.StepsPerMachine*cfg.Machines(), false)
			fr := Figure4Run{Config: cfg, Run: rep.Index}
			cent := float64(inst.cent)
			for k, v := range rec.values {
				fr.ExchangesPerMachine = append(fr.ExchangesPerMachine,
					float64(rec.steps[k])/float64(cfg.Machines()))
				fr.MakespanOverCent = append(fr.MakespanOverCent, float64(v)/cent)
			}
			fr.MinReached = float64(rec.min()) / cent
			fr.FinalOscillation = oscillation(fr.MakespanOverCent)
			return fr, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, runs...)
	}
	return out, nil
}

// makespanSeries is the Figure 4 probe: a gossip.Observer that records Cmax
// every sampleEvery steps, starting at step 0. It reads the engine's
// incremental makespan cache, so a sample costs amortized O(1).
type makespanSeries struct {
	// sampleEvery is the sampling period; 0 or 1 records every step.
	sampleEvery int
	// steps and values are the recorded series.
	steps  []int
	values []core.Cost
}

// OnStep implements gossip.Observer.
func (t *makespanSeries) OnStep(e gossip.Stepper, step, _, _ int) {
	if t.sampleEvery > 1 && step%t.sampleEvery != 0 {
		return
	}
	t.steps = append(t.steps, step)
	t.values = append(t.values, e.Makespan())
}

// min returns the smallest recorded makespan (0 if empty).
func (t *makespanSeries) min() core.Cost {
	if len(t.values) == 0 {
		return 0
	}
	m := t.values[0]
	for _, v := range t.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// oscillation returns max−min over the last quarter of the series.
func oscillation(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	start := len(ys) * 3 / 4
	lo, hi := ys[start], ys[start]
	for _, v := range ys[start:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Figure4Series converts runs into plot series.
func Figure4Series(runs []Figure4Run) []plot.Series {
	out := make([]plot.Series, 0, len(runs))
	for _, r := range runs {
		out = append(out, plot.NewSeries(
			fmt.Sprintf("%s run %d", r.Config.Name, r.Run),
			r.ExchangesPerMachine, r.MakespanOverCent))
	}
	return out
}
