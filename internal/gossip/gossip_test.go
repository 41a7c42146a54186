package gossip

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func TestRunConvergesOneType(t *testing.T) {
	// OJTB on one job type must converge and the engine must detect it.
	ty, _ := core.NewTyped([][]core.Cost{{2}, {3}, {5}}, make([]int, 10))
	a := core.AllOnMachine(ty, 2)
	e := New(protocol.OJTB{Model: ty}, a, Config{Seed: 1})
	res := e.Run(20000, true)
	if !res.Converged {
		t.Fatal("engine did not detect convergence")
	}
	if res.FinalMakespan != a.Makespan() {
		t.Fatal("result makespan inconsistent with assignment")
	}
	if !protocol.Stable(protocol.OJTB{Model: ty}, a) {
		t.Fatal("reported converged but not stable")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	gen := rng.New(42)
	tc := workload.UniformTwoCluster(gen, 4, 2, 24, 1, 50)
	a1 := core.RoundRobin(tc)
	a2 := core.RoundRobin(tc)
	r1 := New(protocol.DLB2C{Model: tc}, a1, Config{Seed: 7}).Run(300, false)
	r2 := New(protocol.DLB2C{Model: tc}, a2, Config{Seed: 7}).Run(300, false)
	if r1.FinalMakespan != r2.FinalMakespan || !a1.Equal(a2) {
		t.Fatal("same seed produced different runs")
	}
	a3 := core.RoundRobin(tc)
	r3 := New(protocol.DLB2C{Model: tc}, a3, Config{Seed: 8}).Run(300, false)
	// Different seeds will usually differ; only check it doesn't crash and
	// remains valid.
	if err := a3.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = r3
}

func TestRunMaxStepsBound(t *testing.T) {
	// The non-converging cycle instance must stop exactly at maxSteps.
	tc, start := workload.CycleInstance()
	e := New(protocol.DLB2C{Model: tc}, start.Clone(), Config{Seed: 3})
	res := e.Run(500, true)
	if res.Converged {
		t.Fatal("cycle instance reported converged")
	}
	if res.Steps != 500 {
		t.Fatalf("steps = %d, want 500", res.Steps)
	}
}

func TestExchangeCounting(t *testing.T) {
	gen := rng.New(1)
	id := workload.UniformIdentical(gen, 6, 30, 1, 10)
	a := core.RoundRobin(id)
	e := New(protocol.SameCost{Model: id}, a, Config{Seed: 2})
	const steps = 200
	e.Run(steps, false)
	total := 0
	for _, c := range e.Exchanges() {
		total += c
	}
	if total != 2*steps {
		t.Fatalf("total exchange participations = %d, want %d", total, 2*steps)
	}
	if e.Steps() != steps {
		t.Fatalf("Steps() = %d", e.Steps())
	}
}

func TestUniformInitiatorDistinct(t *testing.T) {
	gen := rng.New(5)
	sel := UniformInitiator{}
	for k := 0; k < 1000; k++ {
		i, j := sel.Pair(gen, 7)
		if i == j || i < 0 || j < 0 || i >= 7 || j >= 7 {
			t.Fatalf("bad pair (%d, %d)", i, j)
		}
	}
}

func TestSweepCoversAllInitiators(t *testing.T) {
	gen := rng.New(6)
	sel := &Sweep{}
	seen := make(map[int]bool)
	for k := 0; k < 10; k++ {
		i, j := sel.Pair(gen, 5)
		if i == j {
			t.Fatal("sweep produced identical pair")
		}
		seen[i] = true
	}
	if len(seen) != 5 {
		t.Fatalf("sweep initiators covered %d/5 machines", len(seen))
	}
}

func TestObserverSeesEveryStep(t *testing.T) {
	gen := rng.New(7)
	id := workload.UniformIdentical(gen, 4, 12, 1, 10)
	a := core.RoundRobin(id)
	e := New(protocol.SameCost{Model: id}, a, Config{Seed: 9})
	var steps []int
	e.Observe(observerFunc(func(_ Stepper, step, i, j int) {
		steps = append(steps, step)
	}))
	e.Run(50, false)
	if len(steps) != 50 {
		t.Fatalf("observer saw %d steps, want 50", len(steps))
	}
	for k, s := range steps {
		if s != k {
			t.Fatalf("step numbering broken at %d: %d", k, s)
		}
	}
}

type observerFunc func(e Stepper, step, i, j int)

func (f observerFunc) OnStep(e Stepper, step, i, j int) { f(e, step, i, j) }

func TestDefaultSelection(t *testing.T) {
	id, _ := core.NewIdentical(3, []core.Cost{1, 2, 3})
	a := core.RoundRobin(id)
	e := New(protocol.SameCost{Model: id}, a, Config{Seed: 1})
	if e.selection == nil {
		t.Fatal("nil selection not defaulted")
	}
	if e.selection.Name() != (UniformInitiator{}).Name() {
		t.Fatal("default selection is not uniform-initiator")
	}
}

func TestStabilityDetectionNotPremature(t *testing.T) {
	// With detectStability, a converged result must actually be stable
	// even if load-unchanged steps happened earlier by chance.
	gen := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		tc := workload.UniformTwoCluster(gen, 2, 2, 12, 1, 10)
		a := core.RoundRobin(tc)
		e := New(protocol.DLB2C{Model: tc}, a, Config{Seed: gen.Uint64()})
		res := e.Run(5000, true)
		if res.Converged && !protocol.Stable(protocol.DLB2C{Model: tc}, a) {
			t.Fatal("converged result is not stable")
		}
	}
}

func BenchmarkGossipDLB2CPaperScale(b *testing.B) {
	gen := rng.New(12)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.RoundRobin(tc)
		e := New(protocol.DLB2C{Model: tc}, a, Config{Seed: uint64(i)})
		e.Run(96*5, false) // five exchanges per machine, the Figure 5 scale
	}
}

func TestMovesCounted(t *testing.T) {
	// From an all-on-one-machine start every early step moves jobs; the
	// counter must be positive, monotone and conserved across observers.
	gen := rng.New(20)
	id := workload.UniformIdentical(gen, 4, 32, 1, 50)
	a := core.AllOnMachine(id, 0)
	e := New(protocol.SameCost{Model: id}, a, Config{Seed: 21})
	if e.Moves() != 0 {
		t.Fatal("moves before any step")
	}
	prev := 0
	for s := 0; s < 50; s++ {
		e.Step()
		if e.Moves() < prev {
			t.Fatal("move counter decreased")
		}
		prev = e.Moves()
	}
	if e.Moves() == 0 {
		t.Fatal("no moves counted from a pathological start")
	}
}

func TestMinMoveProtocolFewerMoves(t *testing.T) {
	gen := rng.New(22)
	id := workload.UniformIdentical(gen, 6, 60, 1, 100)
	run := func(p protocol.Protocol) int {
		a := core.AllOnMachine(id, 0)
		e := New(p, a, Config{Seed: 23})
		e.Run(300, false)
		return e.Moves()
	}
	rebuild := run(protocol.SameCost{Model: id})
	minmove := run(protocol.SameCostMinMove{Model: id})
	if minmove >= rebuild {
		t.Fatalf("min-move moved %d jobs, rebuild %d", minmove, rebuild)
	}
}

func TestMakespanCacheMatchesRecompute(t *testing.T) {
	// The cached makespan must equal a full rescan after every single step,
	// across protocols that move jobs in both directions.
	gen := rng.New(31)
	tc := workload.UniformTwoCluster(gen, 6, 4, 80, 1, 100)
	a := core.RoundRobin(tc)
	e := New(protocol.DLB2C{Model: tc}, a, Config{Seed: 32})
	if e.Makespan() != a.Makespan() {
		t.Fatal("initial cached makespan wrong")
	}
	e.Observe(observerFunc(func(o Stepper, step, i, j int) {
		e := o.(*Engine)
		if got, want := e.Makespan(), e.Assignment().Makespan(); got != want {
			t.Fatalf("step %d: cached makespan %d != recomputed %d", step, got, want)
		}
	}))
	e.Run(2000, false)
}

func TestEngineMetrics(t *testing.T) {
	gen := rng.New(41)
	id := workload.UniformIdentical(gen, 5, 40, 1, 30)
	a := core.AllOnMachine(id, 0)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	rec := span.NewRecorder(4096)
	e := New(protocol.SameCost{Model: id}, a, Config{Seed: 42, Metrics: met, Spans: rec})
	const steps = 300
	e.Run(steps, false)

	if got := met.Steps.Value(); got != steps {
		t.Fatalf("gossip_steps_total = %d, want %d", got, steps)
	}
	if got := met.Moves.Value(); got != int64(e.Moves()) {
		t.Fatalf("gossip_moves_total = %d, want %d", got, e.Moves())
	}
	if got := met.Makespan.Value(); got != int64(a.Makespan()) {
		t.Fatalf("gossip_makespan = %d, want %d", got, a.Makespan())
	}
	if got := met.StepMoves.Count(); got != steps {
		t.Fatalf("gossip_step_moves count = %d, want %d", got, steps)
	}
	if got := met.StepMoves.Sum(); got != int64(e.Moves()) {
		t.Fatalf("gossip_step_moves sum = %d, want %d", got, e.Moves())
	}
	// One step span per step, each mirroring the step index.
	var stepSpans int
	for _, s := range rec.Spans() {
		if s.Kind == span.KindStep {
			if s.Start != int64(stepSpans) {
				t.Fatalf("step span %d starts at %d", stepSpans, s.Start)
			}
			stepSpans++
		}
	}
	if stepSpans != steps {
		t.Fatalf("recorded %d step spans, want %d", stepSpans, steps)
	}
}

func TestMetricsRegistryReuseAcrossRuns(t *testing.T) {
	// Re-wiring the same registry into a second engine must accumulate, not
	// panic on duplicate registration.
	id, _ := core.NewIdentical(3, []core.Cost{5, 5, 5, 5, 5, 5})
	reg := obs.NewRegistry()
	for run := 0; run < 2; run++ {
		a := core.RoundRobin(id)
		e := New(protocol.SameCost{Model: id}, a, Config{Seed: uint64(run), Metrics: NewMetrics(reg)})
		e.Run(10, false)
	}
	if got := NewMetrics(reg).Steps.Value(); got != 20 {
		t.Fatalf("accumulated steps = %d, want 20", got)
	}
}

// BenchmarkEngineMakespanCached measures Engine.Makespan (incremental cache)
// queried every step; BenchmarkEngineMakespanRecompute is the old path, a
// full O(m) rescan per query. The gap is the win inherited by every observer
// that samples the makespan, such as the Figure 4 and Figure 5 probes.
func BenchmarkEngineMakespanCached(b *testing.B) {
	benchMakespanQuery(b, func(e *Engine) core.Cost { return e.Makespan() })
}

// BenchmarkEngineMakespanRecompute is the baseline full-rescan variant.
func BenchmarkEngineMakespanRecompute(b *testing.B) {
	benchMakespanQuery(b, func(e *Engine) core.Cost { return e.Assignment().Makespan() })
}

func benchMakespanQuery(b *testing.B, query func(*Engine) core.Cost) {
	// Many machines, few jobs per machine: the regime where the O(m) rescan
	// dominates a step and the incremental cache pays off.
	gen := rng.New(50)
	tc := workload.UniformTwoCluster(gen, 2048, 1024, 1024, 1, 1000)
	a := core.RoundRobin(tc)
	e := New(protocol.DLB2C{Model: tc}, a, Config{Seed: 51})
	var sink core.Cost
	e.Observe(observerFunc(func(o Stepper, _, _, _ int) { sink = query(o.(*Engine)) }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	_ = sink
}
