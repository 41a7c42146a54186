package trace

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/obs"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func run(t *testing.T, steps int, obs ...gossip.Observer) *gossip.Engine {
	t.Helper()
	gen := rng.New(1)
	id := workload.UniformIdentical(gen, 6, 48, 1, 100)
	a := core.AllOnMachine(id, 0)
	e := gossip.New(protocol.SameCost{Model: id}, a, gossip.Config{Seed: 2})
	for _, o := range obs {
		e.Observe(o)
	}
	e.Run(steps, false)
	return e
}

func TestMakespanSeriesSampling(t *testing.T) {
	s := &MakespanSeries{SampleEvery: 10}
	run(t, 100, s)
	if len(s.Values) != 10 {
		t.Fatalf("recorded %d samples, want 10", len(s.Values))
	}
	for k, step := range s.Steps {
		if step != k*10 {
			t.Fatalf("sample %d at step %d, want %d", k, step, k*10)
		}
	}
}

func TestMakespanSeriesEveryStep(t *testing.T) {
	s := &MakespanSeries{}
	run(t, 25, s)
	if len(s.Values) != 25 {
		t.Fatalf("recorded %d samples, want 25", len(s.Values))
	}
}

func TestMakespanSeriesDecreasesFromPathologicalStart(t *testing.T) {
	s := &MakespanSeries{}
	run(t, 300, s)
	if s.Values[len(s.Values)-1] >= s.Values[0] {
		t.Fatalf("makespan did not improve: %d -> %d", s.Values[0], s.Values[len(s.Values)-1])
	}
	if s.Min() > s.Values[0] {
		t.Fatal("Min exceeds first sample")
	}
}

func TestMakespanSeriesMinEmpty(t *testing.T) {
	s := &MakespanSeries{}
	if s.Min() != 0 {
		t.Fatal("Min of empty series should be 0")
	}
}

func TestThresholdWatcher(t *testing.T) {
	// From an all-on-one-machine start, the makespan eventually falls
	// below a generous threshold; the watcher must fire exactly once and
	// snapshot exchange counts.
	gen := rng.New(3)
	id := workload.UniformIdentical(gen, 6, 48, 1, 100)
	var total core.Cost
	for j := 0; j < 48; j++ {
		total += id.Size(j)
	}
	threshold := total/6 + 150 // mean + 1.5×pmax
	w := &ThresholdWatcher{Threshold: threshold}
	a := core.AllOnMachine(id, 0)
	e := gossip.New(protocol.SameCost{Model: id}, a, gossip.Config{Seed: 4})
	e.Observe(w)
	e.Run(3000, false)
	if !w.Crossed {
		t.Fatalf("threshold %d never crossed; final=%d", threshold, a.Makespan())
	}
	if len(w.ExchangesAtCross) != 6 {
		t.Fatal("exchange snapshot missing")
	}
	epm, ok := w.ExchangesPerMachine(6)
	if !ok || epm <= 0 {
		t.Fatalf("ExchangesPerMachine = (%v, %v)", epm, ok)
	}
	// The snapshot must not keep growing after the crossing.
	snap := append([]int(nil), w.ExchangesAtCross...)
	e.Run(100, false)
	for k := range snap {
		if snap[k] != w.ExchangesAtCross[k] {
			t.Fatal("snapshot mutated after crossing")
		}
	}
}

func TestThresholdWatcherNeverCrossed(t *testing.T) {
	w := &ThresholdWatcher{Threshold: 0} // unreachable with positive loads
	run(t, 50, w)
	if w.Crossed {
		t.Fatal("crossed impossible threshold")
	}
	if _, ok := w.ExchangesPerMachine(6); ok {
		t.Fatal("ExchangesPerMachine should report not-ok")
	}
}

func TestMakespanSeriesTracerTee(t *testing.T) {
	tr := obs.NewTracer(256)
	s := &MakespanSeries{SampleEvery: 5, Tracer: tr}
	run(t, 50, s)
	events := tr.Events()
	if len(events) != len(s.Values) {
		t.Fatalf("tracer has %d events, series has %d samples", len(events), len(s.Values))
	}
	for k, ev := range events {
		if ev.Type != obs.EvMakespanSample {
			t.Fatalf("event %d type = %v", k, ev.Type)
		}
		if ev.Time != int64(s.Steps[k]) || ev.Value != int64(s.Values[k]) {
			t.Fatalf("event %d = %+v, want step %d value %d", k, ev, s.Steps[k], s.Values[k])
		}
	}
}

// benchSeries drives MakespanSeries sampling every step on a many-machine
// instance. Compare against benchSeriesRecompute: the series now reads the
// engine's incremental cache rather than rescanning all machine loads.
func BenchmarkMakespanSeriesCached(b *testing.B) {
	benchSeries(b, func(e *gossip.Engine) core.Cost { return e.Makespan() })
}

// BenchmarkMakespanSeriesRecompute is the pre-obs baseline: a full O(m)
// makespan rescan on every sampled step.
func BenchmarkMakespanSeriesRecompute(b *testing.B) {
	benchSeries(b, func(e *gossip.Engine) core.Cost { return e.Assignment().Makespan() })
}

type queryObserver struct {
	query func(*gossip.Engine) core.Cost
	sink  core.Cost
}

func (q *queryObserver) OnStep(e gossip.Stepper, _, _, _ int) { q.sink = q.query(e.(*gossip.Engine)) }

func benchSeries(b *testing.B, query func(*gossip.Engine) core.Cost) {
	gen := rng.New(60)
	id := workload.UniformIdentical(gen, 3072, 1024, 1, 100)
	a := core.RoundRobin(id)
	e := gossip.New(protocol.SameCost{Model: id}, a, gossip.Config{Seed: 61})
	e.Observe(&queryObserver{query: query})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
