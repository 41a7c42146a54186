package hetlb_test

import (
	"testing"

	"hetlb"
)

func mustTwoCluster(t *testing.T, m1, m2 int, p0, p1 []hetlb.Cost) *hetlb.TwoCluster {
	t.Helper()
	tc, err := hetlb.NewTwoCluster(m1, m2, p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestPublicDLB2CSequential(t *testing.T) {
	p0 := []hetlb.Cost{10, 80, 30, 20, 70, 60, 10, 90}
	p1 := []hetlb.Cost{70, 10, 40, 80, 20, 10, 60, 15}
	tc := mustTwoCluster(t, 2, 2, p0, p1)
	initial := hetlb.RandomInitial(tc, 7)
	res, err := hetlb.DLB2C(tc, initial, hetlb.RunOptions{Seed: 1, MaxExchanges: 2000, DetectStability: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res.Assignment.Makespan() {
		t.Fatal("result makespan inconsistent")
	}
	if res.Converged && !hetlb.IsStable(tc, res.Assignment) {
		t.Fatal("converged but not stable")
	}
	if lb := hetlb.TwoClusterLowerBound(tc); float64(res.Makespan) < lb-1e9 {
		t.Fatal("makespan below lower bound")
	}
}

func TestPublicShardedRun(t *testing.T) {
	p0 := make([]hetlb.Cost, 96)
	p1 := make([]hetlb.Cost, 96)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*37)%100)
		p1[j] = hetlb.Cost(1 + (j*61)%100)
	}
	tc := mustTwoCluster(t, 6, 6, p0, p1)
	run := func(shards int) hetlb.Result {
		res, err := hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
			Seed: 5, MaxExchanges: 600, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The sharded engine must deliver the same result at any shard count,
	// including an explicit Shards: 1.
	r1, r2, r4 := run(1), run(2), run(4)
	if r2.Makespan != r4.Makespan || !r2.Assignment.Equal(r4.Assignment) || r2.Exchanges != r4.Exchanges {
		t.Fatal("sharded results differ across shard counts")
	}
	if r1.Makespan != r2.Makespan || !r1.Assignment.Equal(r2.Assignment) || r1.Exchanges != r2.Exchanges {
		t.Fatal("Shards: 1 differs from Shards: 2")
	}
	if r2.Makespan > hetlb.RoundRobin(tc).Makespan() {
		t.Fatal("sharded balancing made the round-robin schedule worse")
	}
	// AutoShards lets the engine pick the shard count; results must still
	// match any explicit count.
	ra := run(hetlb.AutoShards)
	if ra.Makespan != r1.Makespan || !ra.Assignment.Equal(r1.Assignment) || ra.Exchanges != r1.Exchanges {
		t.Fatal("AutoShards differs from explicit shard counts")
	}
	// Shard counts below AutoShards are rejected.
	if _, err := hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
		MaxExchanges: 10, Shards: -2,
	}); err == nil {
		t.Fatal("Shards: -2 accepted")
	}
}

func TestPublicShardedFaults(t *testing.T) {
	p0 := make([]hetlb.Cost, 96)
	p1 := make([]hetlb.Cost, 96)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*37)%100)
		p1[j] = hetlb.Cost(1 + (j*61)%100)
	}
	tc := mustTwoCluster(t, 6, 6, p0, p1)
	plan := hetlb.FaultConfig{Crashes: []hetlb.Crash{
		{Machine: 3, At: 2, RecoverAt: 10},
		{Machine: 8, At: 4, LoseJobs: true},
	}}
	run := func(shards int) hetlb.Result {
		res, err := hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
			Seed: 5, MaxExchanges: 600, Shards: shards, Faults: &plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	if r1.Makespan != r4.Makespan || !r1.Assignment.Equal(r4.Assignment) ||
		r1.Voided != r4.Voided || r1.JobsLost != r4.JobsLost {
		t.Fatal("faulted sharded results differ across shard counts")
	}
	if r1.Crashes != 2 || r1.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 2/1", r1.Crashes, r1.Recoveries)
	}
	if r1.JobsLost == 0 || r1.Voided == 0 {
		t.Fatalf("jobsLost=%d voided=%d, want both > 0", r1.JobsLost, r1.Voided)
	}
	if got := len(r1.Assignment.Unplaced()); got != r1.JobsLost {
		t.Fatalf("%d unplaced jobs for %d lost", got, r1.JobsLost)
	}
	// Faults require the sharded engine.
	if _, err := hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
		MaxExchanges: 10, Faults: &plan,
	}); err == nil {
		t.Fatal("Faults accepted without Shards")
	}
	// Message-level faults are rejected by the epoch engine.
	bad := hetlb.FaultConfig{DropProb: 0.1}
	if _, err := hetlb.DLB2C(tc, hetlb.RoundRobin(tc), hetlb.RunOptions{
		MaxExchanges: 10, Shards: 2, Faults: &bad,
	}); err == nil {
		t.Fatal("message faults accepted by the sharded engine")
	}
}

func TestPublicOJTBOptimal(t *testing.T) {
	// One job type: OJTB converges to OPT.
	ty, err := hetlb.NewTyped([][]hetlb.Cost{{3}, {5}, {4}}, make([]int, 10))
	if err != nil {
		t.Fatal(err)
	}
	initial := hetlb.RoundRobin(ty)
	res, err := hetlb.OJTB(ty, initial, hetlb.RunOptions{Seed: 3, MaxExchanges: 5000, DetectStability: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, _, proven := hetlb.SolveExact(ty, 1<<40)
	if !proven {
		t.Fatal("exact solve not proven")
	}
	if !res.Converged || res.Makespan != opt {
		t.Fatalf("OJTB: converged=%v makespan=%d opt=%d", res.Converged, res.Makespan, opt)
	}
}

func TestPublicMJTBApproximation(t *testing.T) {
	// Two types on two machines, each type fast on one machine.
	ty, err := hetlb.NewTyped([][]hetlb.Cost{{1, 8}, {8, 1}}, []int{0, 0, 1, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	initial := hetlb.RoundRobin(ty)
	res, err := hetlb.MJTB(ty, initial, hetlb.RunOptions{Seed: 4, MaxExchanges: 5000, DetectStability: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, _, proven := hetlb.SolveExact(ty, 1<<40)
	if !proven {
		t.Fatal("exact solve not proven")
	}
	if res.Makespan > 2*opt { // k = 2 types
		t.Fatalf("MJTB %d > 2·OPT %d", res.Makespan, opt)
	}
}

func TestPublicCLB2CTwoApprox(t *testing.T) {
	p0 := []hetlb.Cost{5, 9, 3, 7, 4, 6, 2, 8}
	p1 := []hetlb.Cost{6, 2, 7, 3, 8, 5, 9, 4}
	tc := mustTwoCluster(t, 2, 2, p0, p1)
	a := hetlb.CLB2C(tc)
	if !a.Complete() {
		t.Fatal("CLB2C incomplete")
	}
	opt, _, proven := hetlb.SolveExact(tc, 1<<40)
	if proven && a.Makespan() > 2*opt {
		t.Fatalf("CLB2C %d > 2·OPT %d", a.Makespan(), opt)
	}
}

func TestPublicWorkStealingTrap(t *testing.T) {
	// Reconstruct Table I through the public API.
	n := hetlb.Cost(500)
	d, err := hetlb.NewDense([][]hetlb.Cost{
		{1, 1, n, n, n},
		{n, 1, 1, 1, 1},
		{n, n, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	initial := hetlb.NewAssignment(d)
	for j, m := range []int{1, 2, 0, 0, 0} {
		initial.Assign(j, m)
	}
	st, err := hetlb.WorkStealing(d, initial, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.FirstStealTime != 500 || st.Makespan != 501 {
		t.Fatalf("trap: first steal %d, makespan %d", st.FirstStealTime, st.Makespan)
	}
}

func TestPublicBaselines(t *testing.T) {
	id, err := hetlb.NewIdentical(3, []hetlb.Cost{5, 4, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	ls := hetlb.ListScheduling(id)
	lpt := hetlb.LPT(id)
	if !ls.Complete() || !lpt.Complete() {
		t.Fatal("baseline incomplete")
	}
	if lb := hetlb.LowerBound(id); lpt.Makespan() < lb {
		t.Fatal("LPT beat the lower bound")
	}
}

func TestPublicErrors(t *testing.T) {
	id, _ := hetlb.NewIdentical(2, []hetlb.Cost{1, 2})
	incomplete := hetlb.NewAssignment(id)
	if _, err := hetlb.HomogeneousBalance(id, incomplete, hetlb.RunOptions{MaxExchanges: 10}); err == nil {
		t.Fatal("incomplete initial accepted")
	}
	full := hetlb.RoundRobin(id)
	if _, err := hetlb.HomogeneousBalance(id, full, hetlb.RunOptions{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	// A one-machine model has no pair to balance, on either engine.
	one, _ := hetlb.NewIdentical(1, []hetlb.Cost{3, 1, 4, 1})
	for _, shards := range []int{0, 2} {
		opt := hetlb.RunOptions{MaxExchanges: 10, Shards: shards}
		if _, err := hetlb.HomogeneousBalance(one, hetlb.RoundRobin(one), opt); err == nil {
			t.Fatalf("Shards: %d: HomogeneousBalance accepted a one-machine model", shards)
		}
		if _, err := hetlb.OJTB(one, hetlb.RoundRobin(one), opt); err == nil {
			t.Fatalf("Shards: %d: OJTB accepted a one-machine model", shards)
		}
	}
}

func TestPublicLST(t *testing.T) {
	d, err := hetlb.NewDense([][]hetlb.Cost{
		{4, 2, 9, 7},
		{3, 8, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, deadline, err := hetlb.LST(d)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Complete() {
		t.Fatal("LST incomplete")
	}
	opt, _, proven := hetlb.SolveExact(d, 1<<30)
	if !proven {
		t.Fatal("exact not proven")
	}
	if deadline > opt {
		t.Fatalf("deadline %d above OPT %d", deadline, opt)
	}
	if a.Makespan() > 2*opt {
		t.Fatalf("LST %d > 2·OPT %d", a.Makespan(), opt)
	}
}

func TestPublicMessagePassing(t *testing.T) {
	p0 := make([]hetlb.Cost, 48)
	p1 := make([]hetlb.Cost, 48)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*17)%100)
		p1[j] = hetlb.Cost(1 + (j*41)%100)
	}
	tc := mustTwoCluster(t, 4, 2, p0, p1)
	initial := hetlb.RoundRobin(tc)
	res, err := hetlb.DLB2CMessagePassing(tc, initial, hetlb.MessagePassingOptions{
		Seed: 1, Latency: 2, Period: 10, Horizon: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Complete() {
		t.Fatal("jobs lost in message passing")
	}
	if res.Sessions == 0 {
		t.Fatal("no sessions")
	}
	if res.Messages != 3*res.Sessions+2*res.Rejections {
		t.Fatal("message accounting broken")
	}
	if res.Makespan > initial.Makespan() {
		t.Fatal("message-passing balancing made things worse")
	}
	if res.Sent != res.Messages || res.Dropped != 0 || res.Retransmissions != 0 {
		t.Fatalf("perfect network reports degradation: %+v", res)
	}
}

func TestPublicMessagePassingWithFaults(t *testing.T) {
	p0 := make([]hetlb.Cost, 48)
	p1 := make([]hetlb.Cost, 48)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*17)%100)
		p1[j] = hetlb.Cost(1 + (j*41)%100)
	}
	tc := mustTwoCluster(t, 4, 2, p0, p1)
	initial := hetlb.RoundRobin(tc)
	res, err := hetlb.DLB2CMessagePassing(tc, initial, hetlb.MessagePassingOptions{
		Seed: 2, Latency: 2, Period: 10, Horizon: 3000,
		Faults: &hetlb.FaultConfig{
			DropProb: 0.2, DupProb: 0.1, JitterMax: 3,
			Crashes: hetlb.RandomCrashes(7, tc.NumMachines(), 3000, 2, 200, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every job is either placed or in the lost ledger, never both.
	placed := 0
	for j := 0; j < tc.NumJobs(); j++ {
		if res.Assignment.MachineOf(j) != -1 {
			placed++
		}
	}
	if placed+len(res.Lost) != tc.NumJobs() {
		t.Fatalf("%d placed + %d lost != %d jobs", placed, len(res.Lost), tc.NumJobs())
	}
	if res.Dropped == 0 || res.Retransmissions == 0 || res.Crashes != 2 {
		t.Fatalf("fault machinery not exercised: %+v", res)
	}
	if res.Sent <= res.Messages {
		t.Fatalf("Sent %d should exceed deliveries %d under 20%% loss", res.Sent, res.Messages)
	}
}

func TestPublicRunDynamic(t *testing.T) {
	p0 := make([]hetlb.Cost, 60)
	p1 := make([]hetlb.Cost, 60)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*13)%50)
		p1[j] = hetlb.Cost(1 + (j*29)%50)
	}
	tc := mustTwoCluster(t, 3, 3, p0, p1)
	off, err := hetlb.RunDynamic(tc, hetlb.DynamicOptions{Seed: 1, MeanInterarrival: 2})
	if err != nil {
		t.Fatal(err)
	}
	on, err := hetlb.RunDynamic(tc, hetlb.DynamicOptions{Seed: 1, MeanInterarrival: 2, BalanceEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if on.MeanFlow >= off.MeanFlow {
		t.Fatalf("balancing did not reduce mean flow: %v vs %v", on.MeanFlow, off.MeanFlow)
	}
	if on.JobsMoved == 0 || off.JobsMoved != 0 {
		t.Fatal("move accounting wrong")
	}
	// Static mode needs Initial.
	if _, err := hetlb.RunDynamic(tc, hetlb.DynamicOptions{Seed: 2}); err == nil {
		t.Fatal("static mode without Initial accepted")
	}
	static, err := hetlb.RunDynamic(tc, hetlb.DynamicOptions{Seed: 3, BalanceEvery: 4, Initial: hetlb.RoundRobin(tc)})
	if err != nil {
		t.Fatal(err)
	}
	if static.Makespan <= 0 {
		t.Fatal("static run produced no makespan")
	}
}
