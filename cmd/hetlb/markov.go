package main

import (
	"flag"
	"fmt"

	"hetlb/internal/markov"
	"hetlb/internal/plot"
)

// cmdMarkov computes and prints the stationary makespan distribution of the
// one-cluster load-vector Markov chain (paper Section VII.A / Figure 2).
func cmdMarkov(args []string) error {
	fs := flag.NewFlagSet("markov", flag.ExitOnError)
	m := fs.Int("m", 6, "number of machines")
	pmax := fs.Int64("pmax", 4, "maximum job size")
	total := fs.Int64("total", 0, "total load ΣP (default: smallest for which the Theorem 10 bound is attainable)")
	tol := fs.Float64("tol", 1e-11, "power iteration tolerance")
	mc := fs.Int("mc", 0, "estimate by Monte Carlo with this many samples instead of exact enumeration (for large m/pmax)")
	seed := fs.Uint64("seed", 1, "Monte Carlo seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The default total divides by m, so sizes are checked here first.
	switch {
	case *m < 2:
		return fmt.Errorf("-m = %d; want at least 2 machines", *m)
	case *pmax < 1:
		return fmt.Errorf("-pmax = %d; want a job size of at least 1", *pmax)
	case *total < 0:
		return fmt.Errorf("-total = %d; want a non-negative load", *total)
	}
	w := *total
	if w == 0 {
		w = markov.MinimumTotalForBound(*m, *pmax)
	}
	if *mc > 0 {
		return markovMC(*m, *pmax, w, *mc, *seed)
	}
	fmt.Printf("building chain: m=%d pmax=%d ΣP=%d ...\n", *m, *pmax, w)
	chain, err := markov.Build(*m, *pmax, w)
	if err != nil {
		return err
	}
	fmt.Printf("sink component: %d states; Theorem 10 bound: %.1f; max reachable Cmax: %d\n",
		chain.NumStates(), chain.TheoremTenBound(), chain.MaxMakespan())
	pi, iters := chain.Stationary(*tol, 50000)
	fmt.Printf("stationary distribution after %d power iterations (residual %.2g)\n",
		iters, chain.StationaryResidual(pi))
	values, probs := chain.MakespanDistribution(pi)
	rows := make([][]string, 0, len(values))
	var mean float64
	for k, v := range values {
		rows = append(rows, []string{
			fmt.Sprint(v),
			fmt.Sprintf("%.3f", chain.NormalizedDeviation(v)),
			fmt.Sprintf("%.6f", probs[k]),
		})
		mean += float64(v) * probs[k]
	}
	fmt.Print(plot.Table([]string{"Cmax", "deviation/pmax", "probability"}, rows))
	fmt.Printf("mean Cmax: %.3f (balanced: %d)\n", mean, (w+int64(*m)-1)/int64(*m))
	return nil
}

// markovMC estimates the stationary makespan distribution by simulating the
// load-vector walk directly (no state enumeration).
func markovMC(m int, pmax, total int64, samples int, seed uint64) error {
	fmt.Printf("Monte Carlo: m=%d pmax=%d ΣP=%d, %d samples ...\n", m, pmax, total, samples)
	burnin := 200 * m
	s, err := markov.Sample(m, pmax, total, burnin, samples, 2*m, seed)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(s.Values))
	for k, v := range s.Values {
		rows = append(rows, []string{
			fmt.Sprint(v),
			fmt.Sprintf("%.3f", s.NormalizedDeviation(v)),
			fmt.Sprintf("%.6f", s.Probs[k]),
		})
	}
	fmt.Print(plot.Table([]string{"Cmax", "deviation/pmax", "est. probability"}, rows))
	fmt.Printf("max observed Cmax: %d (Theorem 10 bound: %.1f)\n",
		s.MaxSeen, float64(total)/float64(m)+float64(m-1)/2*float64(pmax))
	return nil
}
