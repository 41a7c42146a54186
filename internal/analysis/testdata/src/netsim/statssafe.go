// Package netsim exercises the statssafety analyzer: the directory name puts
// it in the determinism scope, where obs reads must not steer control flow
// and obs records must not sit under obs-keyed branches.
package netsim

import (
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
)

// Metrics bundles stub instruments.
type Metrics struct {
	Steps    obs.Counter
	Depth    obs.Gauge
	Latency  obs.Histogram
	Spans    span.Recorder
	simSteps int64
}

// Steered branches simulation on observability reads: every read in a
// condition is a finding, and so is every record under such a branch.
func (m *Metrics) Steered(load int64) int64 {
	if m.Steps.Value() > 100 { // want `simulation control flow keyed on obs read Counter\.Value`
		load /= 2
	}
	for m.Latency.Count() < 10 { // want `simulation control flow keyed on obs read Histogram\.Count`
		load++
	}
	switch m.Depth.Value() { // want `simulation control flow keyed on obs read Gauge\.Value`
	case 0:
		load = 0
	}
	if m.Spans.Len() > 0 { // want `simulation control flow keyed on obs read Recorder\.Len`
		m.Steps.Inc() // want `obs record Counter\.Inc inside a branch keyed on an obs read`
	}
	return load
}

// Clean records keyed on simulation state and reads outside conditions:
// observation flows one way. No diagnostics.
func (m *Metrics) Clean(load int64, moved int) int64 {
	m.simSteps++
	if moved > 0 {
		m.Steps.Inc()
		m.Latency.Observe(load)
	}
	m.Depth.Set(load)
	total := m.Steps.Value() + m.Latency.Sum() // reads feeding a report, not a branch
	return total
}

// Reporting shows the reasoned escape hatch for progress-printing branches.
func (m *Metrics) Reporting() int64 {
	var printed int64
	if m.Steps.Value()%100 == 0 { //hetlb:nondeterministic-ok reporting-only branch: printed count never reaches simulation state
		printed++
	}
	return printed
}
