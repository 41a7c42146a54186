// Package trace provides gossip.Observer implementations that record what
// the paper's figures plot: makespan trajectories over iterations
// (Figure 4) and first-crossing times of a makespan threshold with
// per-machine exchange counts (Figure 5).
//
// The probes are built on the observability layer: makespan queries go
// through the engine's incremental cache (Engine.Makespan, amortized O(1)
// instead of an O(m) rescan per sampled step), and every probe can tee its
// samples into an obs.Tracer ring for timeline export.
package trace

import (
	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/obs"
)

// MakespanSeries records Cmax every SampleEvery steps (and at step 0).
type MakespanSeries struct {
	// SampleEvery controls the sampling period; 0 or 1 records every step.
	SampleEvery int
	// Steps and Values are the recorded series.
	Steps  []int
	Values []core.Cost
	// Tracer, when non-nil, additionally receives one EvMakespanSample
	// event per recorded point.
	Tracer *obs.Tracer
}

// OnStep implements gossip.Observer.
func (t *MakespanSeries) OnStep(e gossip.Stepper, step, i, j int) {
	every := t.SampleEvery
	if every < 1 {
		every = 1
	}
	if step%every != 0 {
		return
	}
	cmax := e.Makespan()
	t.Steps = append(t.Steps, step)
	t.Values = append(t.Values, cmax)
	if t.Tracer != nil {
		t.Tracer.Emit(obs.Event{Time: int64(step), Type: obs.EvMakespanSample, A: -1, B: -1, Value: int64(cmax)})
	}
}

// Min returns the smallest recorded makespan (0 if empty).
func (t *MakespanSeries) Min() core.Cost {
	if len(t.Values) == 0 {
		return 0
	}
	min := t.Values[0]
	for _, v := range t.Values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// ThresholdWatcher records the first step at which the makespan drops to or
// below Threshold, together with a snapshot of the per-machine exchange
// counts at that moment. This is exactly the measurement of Figure 5 (time
// to first reach 1.5× the CLB2C centralized makespan).
type ThresholdWatcher struct {
	// Threshold is the makespan level watched for.
	Threshold core.Cost
	// Crossed reports whether the threshold was reached.
	Crossed bool
	// FirstStep is the 0-based step index of the first crossing.
	FirstStep int
	// ExchangesAtCross is a copy of the per-machine exchange counts at the
	// crossing.
	ExchangesAtCross []int
	// Tracer, when non-nil, receives one EvMakespanSample event at the
	// crossing.
	Tracer *obs.Tracer
}

// OnStep implements gossip.Observer.
func (t *ThresholdWatcher) OnStep(e gossip.Stepper, step, i, j int) {
	if t.Crossed {
		return
	}
	cmax := e.Makespan()
	if cmax <= t.Threshold {
		t.Crossed = true
		t.FirstStep = step
		t.ExchangesAtCross = append([]int(nil), e.Exchanges()...)
		if t.Tracer != nil {
			t.Tracer.Emit(obs.Event{Time: int64(step), Type: obs.EvMakespanSample, A: -1, B: -1, Value: int64(cmax)})
		}
	}
}

// ExchangesPerMachine returns the crossing step normalized by the machine
// count, the x-axis unit of Figure 5. It returns ok=false if the threshold
// was never crossed.
func (t *ThresholdWatcher) ExchangesPerMachine(machines int) (float64, bool) {
	if !t.Crossed || machines == 0 {
		return 0, false
	}
	return float64(t.FirstStep+1) / float64(machines), true
}
