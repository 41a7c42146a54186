// Package hetlb is a library for distributed (a priori) load balancing on
// fully heterogeneous machines. It reproduces, as a usable system, the
// algorithms and analyses of
//
//	N. Cheriere and E. Saule,
//	"Considerations on Distributed Load Balancing for Fully Heterogeneous
//	Machines: Two Particular Cases", IPDPS Workshops (HCW), 2015.
//
// # Problem
//
// n independent, sequential, non-preemptible jobs must be partitioned onto
// m machines to minimize the makespan (R||Cmax). In the decentralized
// setting the jobs start with an arbitrary distribution and machines
// repeatedly pick random peers and rebalance pairwise, before executing
// anything (a priori balancing) — in contrast to work stealing, which only
// moves work after a machine runs dry and can be arbitrarily bad on
// unrelated machines (Theorem 1 of the paper; see WorkStealing and the
// Table I trap instance).
//
// # Algorithms
//
//   - OJTB: pairwise optimal balancing for one job type; converges to the
//     optimum (Lemma 4).
//   - MJTB: per-type balancing for k job types; converges to a
//     k-approximation (Theorem 5).
//   - CLB2C: centralized greedy 2-approximation for two clusters of
//     identical machines (Theorem 6).
//   - DLB2C: decentralized CLB2C; stable schedules are 2-approximations
//     (Theorem 7) but stability is not guaranteed (Proposition 8), in which
//     case the dynamic equilibrium keeps the makespan low (Section VII).
//
// # Quick start
//
//	model, _ := hetlb.NewTwoCluster(64, 32, costsCPU, costsGPU)
//	initial := hetlb.RandomInitial(model, 42)
//	res, _ := hetlb.DLB2C(model, initial, hetlb.RunOptions{
//		Seed:         1,
//		MaxExchanges: 64 * 5,
//	})
//	fmt.Println(res.Makespan, res.Converged)
//
// # Replication
//
// Monte-Carlo studies over the library run through Replicate, a
// deterministic parallel replication harness: each replication draws all
// randomness from a substream keyed by (seed, index), so the results are
// bit-identical for every worker count. The experiment drivers behind the
// paper's tables and figures are built on the same runner.
//
// The hetlb command under cmd/ regenerates every table and figure of the
// paper's evaluation ("go run ./cmd/hetlb figures -paper" runs it end to
// end, in parallel with --parallel); see DESIGN.md and EXPERIMENTS.md.
package hetlb
