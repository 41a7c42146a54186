package shardgossip

import (
	"slices"
	"sync/atomic"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/gossip"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// countingProtocol counts pair steps: protocol.Step calls Transfer once per
// step, on both engines' sessions and stability checks alike, so the steps a
// check makes are the difference across a check with no session in between.
type countingProtocol struct {
	protocol.Protocol
	calls atomic.Int64
}

func (p *countingProtocol) Transfer(s *pairwise.Scratch, i, j int, onI, onJ []int) ([]int, []int, bool) {
	p.calls.Add(1)
	return p.Protocol.Transfer(s, i, j, onI, onJ)
}

// checkCase is one protocol on a random instance of its model family.
type checkCase struct {
	name  string
	model core.CostModel
	proto protocol.Protocol
}

// checkCases draws DLB2C, MJTB and DLBKC instances with m machines and n
// jobs (m >= 4), plus DLB2CMinMove on the DLB2C instance, whose
// same-cluster steps transfer jobs instead of splitting the pair's union.
func checkCases(gen *rng.RNG, m, n int) []checkCase {
	tc := workload.UniformTwoCluster(gen, m/2, m-m/2, n, 1, 40)
	ty := workload.UniformTyped(gen, m, n, 1+gen.Intn(3), 1, 40)
	sizes := []int{m / 3, m / 3, m - 2*(m/3)}
	costs := make([][]core.Cost, len(sizes))
	for c := range costs {
		costs[c] = make([]core.Cost, n)
		for j := range costs[c] {
			costs[c][j] = gen.IntRange(1, 40)
		}
	}
	kc, err := core.NewKCluster(sizes, costs)
	if err != nil {
		panic(err)
	}
	return []checkCase{
		{"DLB2C", tc, protocol.DLB2C{Model: tc}},
		{"MJTB", ty, protocol.MJTB{Model: ty}},
		{"DLBKC", kc, protocol.DLBKC{Model: kc}},
		{"DLB2CMinMove", tc, protocol.DLB2CMinMove{Model: tc}},
	}
}

// fullScan is the sharded sessions' stability scan restarting at (0,1):
// step every pair of up machines and return the first whose step changes
// its lists, or (-1, -1).
func fullScan(p protocol.Protocol, jobs [][]int, down []bool) (int, int) {
	var s pairwise.Scratch
	for i := range jobs {
		if down != nil && down[i] {
			continue
		}
		for j := i + 1; j < len(jobs); j++ {
			if down != nil && down[j] {
				continue
			}
			toI, toJ := protocol.Step(p, &s, i, j, jobs[i], jobs[j])
			if !slices.Equal(toI, jobs[i]) || !slices.Equal(toJ, jobs[j]) {
				return i, j
			}
		}
	}
	return -1, -1
}

// cloneScan is the sequential engine's stability scan restarting at (0,1):
// balance a clone of the assignment for every pair and return the first
// pair whose step changes it, or (-1, -1).
func cloneScan(p protocol.Protocol, a *core.Assignment) (int, int) {
	m := a.Model().NumMachines()
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			b := a.Clone()
			protocol.Balance(p, b, i, j)
			if !b.Equal(a) {
				return i, j
			}
		}
	}
	return -1, -1
}

// checkStats counts what a comparison run covered.
type checkStats struct {
	checks, stable, withDown int
}

// compareCheck runs one incremental check through check and compares its
// answer with (wi, wj), the full scan's. An immediate second check must give
// the same answer while splitting only the failing pair, or nothing when the
// placement is stable: every other pair was just verified, and no machine
// has changed since. calls counts the pair steps.
func compareCheck(t testing.TB, what string, wi, wj int, calls *atomic.Int64, down []bool, check func() (int, int), st *checkStats) bool {
	t.Helper()
	if gi, gj := check(); gi != wi || gj != wj {
		t.Fatalf("%s: incremental check (%d,%d), full scan (%d,%d)", what, gi, gj, wi, wj)
	}
	before := calls.Load()
	if ri, rj := check(); ri != wi || rj != wj {
		t.Fatalf("%s: re-check (%d,%d), want (%d,%d)", what, ri, rj, wi, wj)
	}
	want := int64(1)
	if wi == -1 {
		want = 0
	}
	if got := calls.Load() - before; got != want {
		t.Fatalf("%s: immediate re-check split %d pairs, want %d", what, got, want)
	}
	st.checks++
	if wi == -1 {
		st.stable++
	}
	if slices.Contains(down, true) {
		st.withDown++
	}
	return wi == -1
}

// compareSharded steps a sharded engine through rounds of the given epoch
// counts and compares its stability check with a full scan after each round.
// A stable verdict latches the engine, as Run does, so later rounds cover
// the latched fast path and its re-opening by fault transitions.
func compareSharded(t testing.TB, c checkCase, initial *core.Assignment, cfg Config, rounds []int, st *checkStats) {
	t.Helper()
	p := &countingProtocol{Protocol: c.proto}
	e, err := New(p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for r, epochs := range rounds {
		for k := 0; k < epochs; k++ {
			e.StepEpoch()
		}
		var down []bool
		if e.faults != nil {
			down = e.faults.down
		}
		what := c.name + " sharded"
		wi, wj := fullScan(c.proto, e.jobs, down)
		if compareCheck(t, what, wi, wj, &p.calls, down, e.unstablePair, st) && !e.checkStable() {
			t.Fatalf("%s round %d: a stable placement did not latch", what, r)
		}
	}
	if err := e.ValidateConservation(); err != nil {
		t.Fatal(err)
	}
}

// compareSequential does the same on the sequential engine, whose rounds are
// step counts and whose check runs on the assignment it mutates.
func compareSequential(t testing.TB, c checkCase, initial *core.Assignment, seed uint64, rounds []int, st *checkStats) {
	t.Helper()
	p := &countingProtocol{Protocol: c.proto}
	e := gossip.New(p, initial, gossip.Config{Seed: seed})
	for _, steps := range rounds {
		for k := 0; k < steps; k++ {
			e.Step()
		}
		wi, wj := cloneScan(c.proto, e.Assignment())
		compareCheck(t, c.name+" sequential", wi, wj, &p.calls, nil, e.UnstablePair, st)
	}
}

// TestStabilityCheckMatchesFullScanUnderCrashes is the incremental checker's
// property test: on both engines, for DLB2C, MJTB, DLBKC and DLB2CMinMove,
// at S = 1, 2, 3,
// with and without crash plans (LoseJobs, frozen jobs, recoveries, a machine
// that never recovers), every check after a random number of epochs or
// steps returns the verdict and first failing pair of a scan restarting at
// (0,1), and an immediate re-check splits at most the one failing pair.
func TestStabilityCheckMatchesFullScanUnderCrashes(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	var sharded, crashed, sequential checkStats
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		gen := rng.New(rng.DeriveSeed(7001, seed))
		m := 4 + gen.Intn(9)
		n := 2*m + gen.Intn(5*m)
		rounds := make([]int, 24)
		for r := range rounds {
			rounds[r] = gen.Intn(6)
		}
		plan := faults.Config{Crashes: faults.RandomCrashes(rng.DeriveSeed(7002, seed), m, 60, 1+m/3, 6, 0.5)}
		// One more machine goes down for good, unless the plan already
		// crashes it.
		last := m - 1
		if !slices.ContainsFunc(plan.Crashes, func(cr faults.Crash) bool { return cr.Machine == last }) {
			plan.Crashes = append(plan.Crashes, faults.Crash{Machine: last, At: int64(20 + gen.Intn(40)), LoseJobs: seed%2 == 0})
		}
		for _, c := range checkCases(gen, m, n) {
			initial := core.RoundRobin(c.model)
			for s := 1; s <= 3; s++ {
				cfg := Config{Seed: seed, Shards: s}
				compareSharded(t, c, initial, cfg, rounds, &sharded)
				cfg.Faults = &plan
				compareSharded(t, c, initial, cfg, rounds, &crashed)
			}
			steps := make([]int, len(rounds))
			for r, epochs := range rounds {
				steps[r] = epochs * m
			}
			compareSequential(t, c, initial.Clone(), seed, steps, &sequential)
		}
	}
	for name, st := range map[string]checkStats{"sharded": sharded, "crashed": crashed, "sequential": sequential} {
		t.Logf("%s: %+v", name, st)
		if st.stable == 0 || st.stable == st.checks {
			t.Errorf("%s: %d of %d checks stable; both verdicts must be covered", name, st.stable, st.checks)
		}
	}
	if crashed.withDown == 0 {
		t.Error("no check ran with a machine down")
	}
}

// decodeCrashes reads a valid crash plan for m machines, three bytes per
// crash: the machine (high bit: LoseJobs), the gap after the machine's
// previous recovery, and the downtime (0: the machine never recovers).
func decodeCrashes(data []byte, m int) []faults.Crash {
	free := make([]int64, m) // the time after which each machine may crash; -1: never again
	var out []faults.Crash
	for ; len(data) >= 3 && len(out) < 16; data = data[3:] {
		x := int(data[0]&0x7f) % m
		if free[x] < 0 {
			continue
		}
		cr := faults.Crash{Machine: x, At: free[x] + 1 + int64(data[1]%16), LoseJobs: data[0]&0x80 != 0}
		free[x] = -1
		if down := int64(data[2] % 16); down > 0 {
			cr.RecoverAt = cr.At + down
			free[x] = cr.RecoverAt
		}
		out = append(out, cr)
	}
	return out
}

// FuzzStabilityCheck decodes a small instance (protocol, machine count and
// the seed of its costs and initial placement), per-round epoch counts and a
// crash plan. It runs the sharded engine at S = 1 and 2 under the plan and
// the sequential engine for m steps per epoch, and asserts after every round
// that the incremental stability check answers as a full scan does.
func FuzzStabilityCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, proto, machines byte, seed uint64, rounds, plan []byte) {
		m := 4 + int(machines%9)
		gen := rng.New(seed)
		n := m + gen.Intn(5*m)
		cases := checkCases(gen, m, n)
		c := cases[int(proto)%len(cases)]
		initial := core.NewAssignment(c.model)
		for job := 0; job < n; job++ {
			initial.Assign(job, gen.Intn(m))
		}
		if len(rounds) > 32 {
			rounds = rounds[:32]
		}
		epochs := make([]int, len(rounds))
		steps := make([]int, len(rounds))
		for r, b := range rounds {
			epochs[r] = int(b % 8)
			steps[r] = epochs[r] * m
		}
		var st checkStats
		cfg := Config{Seed: seed, Faults: &faults.Config{Crashes: decodeCrashes(plan, m)}}
		for s := 1; s <= 2; s++ {
			cfg.Shards = s
			compareSharded(t, c, initial, cfg, epochs, &st)
		}
		compareSequential(t, c, initial, seed, steps, &st)
	})
}
