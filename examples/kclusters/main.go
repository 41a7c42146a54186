// k-cluster scenario: the extension the paper names as future work
// ("extension to more than two clusters of machines"). A modern
// supercomputer node pool with four hardware generations: big-core CPUs,
// many-core CPUs, GPUs and FPGAs. DLBKC balances pairwise exactly like
// DLB2C, treating each cross-generation pair as a tiny two-cluster CLB2C
// problem; quality is judged against the LP fractional lower bound.
//
//	go run ./examples/kclusters
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hetlb"
)

func main() {
	rng := rand.New(rand.NewSource(4))

	sizes := []int{16, 16, 8, 4} // big-core, many-core, GPU, FPGA
	names := []string{"big-core", "many-core", "gpu", "fpga"}
	const jobs = 384

	// Each job has a per-generation cost; generations are good at
	// different job shapes (fully unrelated across clusters).
	p := make([][]hetlb.Cost, len(sizes))
	for c := range p {
		p[c] = make([]hetlb.Cost, jobs)
	}
	for j := 0; j < jobs; j++ {
		base := 50 + rng.Intn(300)
		favorite := rng.Intn(len(sizes))
		for c := range sizes {
			mult := 1
			if c != favorite {
				mult = 2 + rng.Intn(6)
			}
			p[c][j] = hetlb.Cost(base * mult)
		}
	}
	model, err := hetlb.NewKCluster(sizes, p)
	if err != nil {
		log.Fatal(err)
	}

	initial := hetlb.RandomInitial(model, 11)
	fmt.Printf("4 machine generations (%v machines), %d jobs\n", sizes, jobs)
	fmt.Printf("initial Cmax (random submission): %d\n", initial.Makespan())

	res, err := hetlb.DLBKC(model, initial, hetlb.RunOptions{
		Seed:         12,
		MaxExchanges: model.NumMachines() * 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	lb, err := hetlb.FractionalLowerBound(model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after %d pairwise exchanges: Cmax = %d\n", res.Exchanges, res.Makespan)
	fmt.Printf("LP fractional lower bound: %.1f → Cmax/LB = %.2f\n",
		lb, float64(res.Makespan)/lb)

	// Where did each job family end up? Count jobs per cluster.
	perCluster := make([]int, len(sizes))
	for j := 0; j < model.NumJobs(); j++ {
		perCluster[model.ClusterOf(res.Assignment.MachineOf(j))]++
	}
	fmt.Println("jobs per generation after balancing:")
	for c, n := range perCluster {
		fmt.Printf("  %-9s %3d jobs on %2d machines\n", names[c], n, sizes[c])
	}
}
