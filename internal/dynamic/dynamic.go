// Package dynamic simulates the operational mode Section IV of the paper
// motivates for a-priori balancers: the balancing algorithm runs
// *concurrently with the application*. Machines execute their local queues
// while, periodically, a random pair of machines rebalances its pending
// (not-yet-started) jobs with a protocol kernel. Jobs may all be present at
// time zero or arrive over time on random machines ("tasks might
// dynamically be created on a processor").
//
// This closes the loop between the paper's two worlds: the protocols of
// internal/protocol decide *where* jobs go, the discrete-event kernel of
// internal/des decides *when* things happen, and the result is measured in
// schedule terms (makespan, flow time) rather than balancing terms.
package dynamic

import (
	"fmt"
	"math"
	"slices"

	"hetlb/internal/core"
	"hetlb/internal/des"
	"hetlb/internal/pairwise"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
)

// Config parameterizes a run.
type Config struct {
	// Seed drives arrivals, placement and pair selection.
	Seed uint64
	// BalanceEvery is the virtual-time period between balancing events
	// (each event rebalances one random pair's pending jobs); 0 disables
	// balancing entirely (the no-balancer baseline).
	BalanceEvery int64
	// MeanInterarrival > 0 spreads job arrivals with exponential gaps of
	// this mean, each job landing on a uniformly random machine. 0 makes
	// all jobs available at time zero according to Initial.
	MeanInterarrival float64
	// Initial places the jobs when MeanInterarrival == 0; it must be
	// complete. Ignored otherwise.
	Initial *core.Assignment
	// MaxEvents is a safety valve (0 = generous default).
	MaxEvents uint64
}

// Result summarizes a run.
type Result struct {
	// Makespan is when the last job completed.
	Makespan int64
	// MeanFlow and MaxFlow summarize completion − arrival over jobs.
	MeanFlow float64
	MaxFlow  int64
	// Exchanges counts balancing events that moved at least one job;
	// BalanceEvents counts all balancing events.
	Exchanges, BalanceEvents int
	// JobsMoved counts job migrations (a job moved twice counts twice).
	JobsMoved int
	// Completion and Arrival per job (diagnostics).
	Completion, Arrival []int64
}

type machine struct {
	pending   []int
	running   int
	busyUntil int64 // completion time of the running job
}

// Simulator couples execution with periodic pairwise balancing.
type Simulator struct {
	model core.CostModel
	proto protocol.Protocol
	cfg   Config
	sim   *des.Simulator
	gen   *rng.RNG
	ms    []machine
	left  int
	res   Result
	// scratch backs the kernel calls of protocols without a loaded form.
	scratch pairwise.Scratch
}

// New validates the configuration and builds a simulator.
func New(model core.CostModel, proto protocol.Protocol, cfg Config) (*Simulator, error) {
	if cfg.BalanceEvery < 0 {
		return nil, fmt.Errorf("dynamic: negative balance period")
	}
	if cfg.MeanInterarrival < 0 {
		return nil, fmt.Errorf("dynamic: negative interarrival mean")
	}
	if cfg.MeanInterarrival == 0 {
		if cfg.Initial == nil || !cfg.Initial.Complete() {
			return nil, fmt.Errorf("dynamic: static mode needs a complete initial assignment")
		}
	}
	s := &Simulator{
		model: model,
		proto: proto,
		cfg:   cfg,
		sim:   des.New(),
		gen:   rng.New(cfg.Seed),
		ms:    make([]machine, model.NumMachines()),
		left:  model.NumJobs(),
	}
	for i := range s.ms {
		s.ms[i].running = -1
	}
	s.res.Completion = make([]int64, model.NumJobs())
	s.res.Arrival = make([]int64, model.NumJobs())
	return s, nil
}

// Run executes the simulation to completion.
func (s *Simulator) Run() Result {
	n := s.model.NumJobs()
	if n == 0 {
		return s.res
	}
	// Schedule arrivals.
	if s.cfg.MeanInterarrival == 0 {
		for j := 0; j < n; j++ {
			i := s.cfg.Initial.MachineOf(j)
			s.ms[i].pending = append(s.ms[i].pending, j)
		}
		for i := range s.ms {
			i := i
			s.sim.At(0, des.PhaseStart, func() { s.start(i) })
		}
	} else {
		t := 0.0
		for j := 0; j < n; j++ {
			t += expSample(s.gen, s.cfg.MeanInterarrival)
			at := int64(t)
			j := j
			s.sim.At(at, des.PhaseTransfer, func() { s.arrive(j) })
		}
	}
	// Periodic balancing.
	if s.cfg.BalanceEvery > 0 && s.model.NumMachines() > 1 {
		s.sim.At(s.cfg.BalanceEvery, des.PhaseTransfer, s.balanceTick)
	}

	maxEvents := s.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 10_000_000
	}
	if !s.sim.Run(maxEvents) {
		panic("dynamic: event budget exhausted")
	}
	if s.left != 0 {
		panic("dynamic: drained with jobs unfinished")
	}
	var sumFlow float64
	for j := 0; j < n; j++ {
		f := s.res.Completion[j] - s.res.Arrival[j]
		sumFlow += float64(f)
		if f > s.res.MaxFlow {
			s.res.MaxFlow = f
		}
	}
	s.res.MeanFlow = sumFlow / float64(n)
	return s.res
}

// expSample draws an exponential gap with the given mean.
func expSample(gen *rng.RNG, mean float64) float64 {
	u := gen.Float64()
	for u == 0 {
		u = gen.Float64()
	}
	return -mean * math.Log(u)
}

// arrive lands job j on a random machine.
func (s *Simulator) arrive(j int) {
	i := s.gen.Intn(s.model.NumMachines())
	s.res.Arrival[j] = s.sim.Now()
	s.ms[i].pending = append(s.ms[i].pending, j)
	s.sim.At(s.sim.Now(), des.PhaseStart, func() { s.start(i) })
}

// start runs machine i's next pending job if it is idle.
func (s *Simulator) start(i int) {
	m := &s.ms[i]
	if m.running != -1 || len(m.pending) == 0 {
		return
	}
	j := m.pending[0]
	m.pending = m.pending[1:]
	m.running = j
	done := s.sim.Now() + int64(s.model.Cost(i, j))
	m.busyUntil = done
	s.sim.At(done, des.PhaseComplete, func() { s.complete(i, j) })
}

// complete finishes job j on machine i.
func (s *Simulator) complete(i, j int) {
	s.ms[i].running = -1
	s.res.Completion[j] = s.sim.Now()
	s.left--
	if s.left == 0 {
		s.res.Makespan = s.sim.Now()
		return
	}
	s.sim.At(s.sim.Now(), des.PhaseStart, func() { s.start(i) })
}

// balanceTick rebalances one random pair's pending jobs and reschedules
// itself while work remains.
func (s *Simulator) balanceTick() {
	if s.left == 0 {
		return
	}
	mm := s.model.NumMachines()
	i := s.gen.Intn(mm)
	peer := s.gen.Pick(mm, i)
	s.res.BalanceEvents++

	// Pool pending jobs only; running jobs are non-preemptible, but their
	// remaining time is real load the kernel must account for (otherwise
	// a short job stays parked behind a long-running one while another
	// machine idles).
	union := append(append([]int(nil), s.ms[i].pending...), s.ms[peer].pending...)
	sortInts(union)
	var toI, toPeer []int
	if ls, ok := s.proto.(protocol.LoadedSplitter); ok {
		toI, toPeer = ls.SplitLoaded(i, peer, s.remaining(i), s.remaining(peer), union)
	} else {
		toI, toPeer = s.proto.SplitScratch(&s.scratch, i, peer, union)
		toI, toPeer = slices.Clone(toI), slices.Clone(toPeer)
	}
	moved := countMoves(s.ms[i].pending, toI) + countMoves(s.ms[peer].pending, toPeer)
	if moved > 0 {
		s.res.Exchanges++
		s.res.JobsMoved += moved
	}
	s.ms[i].pending = toI
	s.ms[peer].pending = toPeer
	s.sim.At(s.sim.Now(), des.PhaseStart, func() { s.start(i) })
	peerCopy := peer
	s.sim.At(s.sim.Now(), des.PhaseStart, func() { s.start(peerCopy) })

	s.sim.After(s.cfg.BalanceEvery, des.PhaseTransfer, s.balanceTick)
}

// remaining returns the remaining processing time of machine i's running
// job (0 when idle).
func (s *Simulator) remaining(i int) core.Cost {
	m := &s.ms[i]
	if m.running == -1 {
		return 0
	}
	return core.Cost(m.busyUntil - s.sim.Now())
}

// countMoves counts jobs in after that were not in before.
func countMoves(before, after []int) int {
	in := make(map[int]bool, len(before))
	for _, j := range before {
		in[j] = true
	}
	moves := 0
	for _, j := range after {
		if !in[j] {
			moves++
		}
	}
	return moves
}

func sortInts(s []int) {
	// Insertion sort: unions are small and usually nearly sorted.
	for i := 1; i < len(s); i++ {
		v := s[i]
		k := i - 1
		for k >= 0 && s[k] > v {
			s[k+1] = s[k]
			k--
		}
		s[k+1] = v
	}
}
