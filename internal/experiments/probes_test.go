package experiments

import (
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// probeMachines is the machine count of the probe tests' instance.
const probeMachines = 6

// probeEngine returns a same-cost gossip engine on 6 machines and 48 jobs,
// started with every job on machine 0 and with obs attached, and the jobs'
// total size.
func probeEngine(obs ...gossip.Observer) (*gossip.Engine, core.Cost) {
	id := workload.UniformIdentical(rng.New(3), probeMachines, 48, 1, 100)
	var total core.Cost
	for j := 0; j < id.NumJobs(); j++ {
		total += id.Size(j)
	}
	e := gossip.New(protocol.SameCost{Model: id}, core.AllOnMachine(id, 0), gossip.Config{Seed: 4})
	for _, o := range obs {
		e.Observe(o)
	}
	return e, total
}

// checkSeries fails unless s holds steps/k samples taken at steps 0, k, 2k,
// … and min is the smallest of them.
func checkSeries(t *testing.T, s *makespanSeries, steps, k int) {
	t.Helper()
	if len(s.steps) != steps/k || len(s.values) != len(s.steps) {
		t.Fatalf("%d steps, %d values; want %d samples", len(s.steps), len(s.values), steps/k)
	}
	for n, step := range s.steps {
		if step != n*k {
			t.Fatalf("sample %d at step %d, want %d", n, step, n*k)
		}
	}
	if s.min() != slices.Min(s.values) {
		t.Fatalf("min %d, smallest sample %d", s.min(), slices.Min(s.values))
	}
}

func TestMakespanSeriesSampling(t *testing.T) {
	s := &makespanSeries{sampleEvery: 10}
	e, _ := probeEngine(s)
	e.Run(100, false)
	checkSeries(t, s, 100, 10)
}

func TestMakespanSeriesEveryStep(t *testing.T) {
	s := &makespanSeries{}
	e, _ := probeEngine(s)
	e.Run(25, false)
	checkSeries(t, s, 25, 1)
}

func TestMakespanSeriesDecreasesFromPathologicalStart(t *testing.T) {
	s := &makespanSeries{}
	e, _ := probeEngine(s)
	e.Run(300, false)
	checkSeries(t, s, 300, 1)
	if first, last := s.values[0], s.values[len(s.values)-1]; last >= first || s.min() >= first {
		t.Fatalf("makespan did not improve: first %d, last %d, min %d", first, last, s.min())
	}
}

func TestMakespanSeriesMinEmpty(t *testing.T) {
	if (&makespanSeries{}).min() != 0 {
		t.Fatal("min of an empty series should be 0")
	}
}

// TestThresholdWatcher checks that the watcher fires once, at the first step
// at or below the threshold, with a snapshot of the exchange counts after
// that step which later steps leave alone.
func TestThresholdWatcher(t *testing.T) {
	s := &makespanSeries{}
	w := &thresholdWatcher{}
	e, total := probeEngine(s, w)
	w.threshold = total/probeMachines + 150 // mean + 1.5×pmax
	e.Run(3000, false)
	if !w.crossed {
		t.Fatalf("threshold %d never crossed", w.threshold)
	}
	if i := slices.IndexFunc(s.values, func(v core.Cost) bool { return v <= w.threshold }); i != w.firstStep {
		t.Fatalf("watcher fired at step %d, the series first crosses at %d", w.firstStep, i)
	}
	// Each step adds one exchange to each side of its pair.
	var sum int
	for _, c := range w.exchangesAtCross {
		sum += c
	}
	if len(w.exchangesAtCross) != probeMachines || sum != 2*(w.firstStep+1) {
		t.Fatalf("snapshot %v is not the counts after step %d", w.exchangesAtCross, w.firstStep)
	}
	if epm, ok := w.exchangesPerMachine(probeMachines); !ok || epm != float64(w.firstStep+1)/probeMachines {
		t.Fatalf("exchangesPerMachine = (%v, %v)", epm, ok)
	}
	first, snap := w.firstStep, slices.Clone(w.exchangesAtCross)
	e.Run(100, false)
	if w.firstStep != first || !slices.Equal(w.exchangesAtCross, snap) {
		t.Fatal("the watcher changed after its crossing")
	}
}

func TestThresholdWatcherNeverCrossed(t *testing.T) {
	w := &thresholdWatcher{threshold: 0} // unreachable with positive loads
	e, _ := probeEngine(w)
	e.Run(50, false)
	if _, ok := w.exchangesPerMachine(probeMachines); w.crossed || ok {
		t.Fatalf("crossed an unreachable threshold (ok=%v)", ok)
	}
}
