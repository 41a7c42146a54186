// Non-convergence demo (Proposition 8 / Section VII): DLB2C has no
// termination guarantee — on some instances every reachable schedule can
// still be improved by *some* pair, so the system cycles forever. The paper
// shows the dynamic equilibrium is nevertheless good. This example runs
// DLB2C on such an instance and on a healthy instance side by side.
//
//	go run ./examples/nonconvergence
package main

import (
	"fmt"
	"log"

	"hetlb"
)

func main() {
	// The 5-job, 3-machine (2+1 clusters) instance from the repository's
	// Proposition 8 reproduction (found by `hetlb explore -builtin=false
	// -tries 400`): from this initial placement, 19 schedules are reachable
	// and none is stable.
	model, err := hetlb.NewTwoCluster(2, 1,
		[]hetlb.Cost{1, 4, 2, 1, 5},
		[]hetlb.Cost{3, 2, 1, 1, 2})
	if err != nil {
		log.Fatal(err)
	}
	initial := hetlb.NewAssignment(model)
	for j, m := range []int{1, 0, 1, 0, 1} {
		initial.Assign(j, m)
	}

	fmt.Println("cycling instance (Proposition 8):")
	fmt.Printf("  start: %v\n", initial)
	for _, budget := range []int{100, 1000, 10000} {
		run := initial.Clone()
		res, err := hetlb.DLB2C(model, run, hetlb.RunOptions{
			Seed:            hetlb.DeriveSeed(42, uint64(budget)),
			MaxExchanges:    budget,
			DetectStability: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after %5d exchanges: Cmax = %d, stable: %v\n",
			budget, res.Makespan, res.Converged)
	}
	opt, _, _ := hetlb.SolveExact(model, 1<<30)
	fmt.Printf("  it never stabilizes — yet Cmax stays within 2× of OPT=%d (dynamic equilibrium).\n\n", opt)

	// A benign instance for contrast: strongly cluster-biased jobs let
	// DLB2C settle.
	benign, err := hetlb.NewTwoCluster(2, 2,
		[]hetlb.Cost{2, 2, 90, 90, 3, 88},
		[]hetlb.Cost{88, 90, 3, 2, 90, 2})
	if err != nil {
		log.Fatal(err)
	}
	start := hetlb.RoundRobin(benign)
	res, err := hetlb.DLB2C(benign, start, hetlb.RunOptions{
		Seed:            5,
		MaxExchanges:    10000,
		DetectStability: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("benign instance:")
	fmt.Printf("  after %d exchanges: Cmax = %d, stable: %v\n",
		res.Exchanges, res.Makespan, res.Converged)
	if res.Converged {
		opt2, _, _ := hetlb.SolveExact(benign, 1<<30)
		fmt.Printf("  stable ⇒ 2-approximation (Theorem 7): Cmax/OPT = %.2f\n",
			float64(res.Makespan)/float64(opt2))
	}
}
