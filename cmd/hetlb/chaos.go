package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"hetlb/internal/experiments"
	"hetlb/internal/harness"
	"hetlb/internal/plot"
)

// cmdChaos runs the graceful-degradation sweep: DLB2C over the
// message-passing runtime while the fault plan drops and duplicates
// messages and crashes machines, reporting convergence time and final Cmax
// per (loss rate, crash count) cell. Deterministic for a fixed -seed at any
// -parallel. With -shards the sweep instead targets the sharded epoch
// engine: crashes void matchings and lose or freeze jobs (message faults
// don't apply), and the table reports Cmax degradation against a
// fault-free run of the identical instance.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	def := experiments.PaperChaos()
	sdef := experiments.PaperShardChaos()
	m1 := fs.Int("m1", def.M1, "machines in cluster 1")
	m2 := fs.Int("m2", def.M2, "machines in cluster 2")
	jobs := fs.Int("jobs", def.Jobs, "number of jobs")
	loss := fs.String("loss", "0,0.05,0.15,0.3", "comma-separated message loss rates in [0,1)")
	crashes := fs.String("crashes", "0,2,4", "comma-separated crash counts")
	runs := fs.Int("runs", def.Runs, "replications per cell")
	horizon := fs.Int64("horizon", def.Horizon, "virtual-time budget per run")
	seed := fs.Uint64("seed", def.Seed, "base random seed")
	parallel := fs.Int("parallel", 0, "replication worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall time (0 = no limit)")
	shards := fs.Int("shards", 0, "run the sharded epoch engine with this many shards (-1 = auto, 0 = use the message-passing runtime)")
	machines := fs.Int("m", sdef.Machines, "machines (sharded engine only)")
	types := fs.Int("types", sdef.Types, "job types (sharded engine only)")
	lose := fs.Float64("lose", sdef.LoseProb, "probability a crash loses the machine's jobs instead of freezing them (sharded engine only)")
	epochs := fs.Int("epochs", sdef.Epochs, "epoch budget per run (sharded engine only)")
	var obs obsFlags
	obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	crashCounts, err := parseInts(*crashes)
	if err != nil {
		return fmt.Errorf("-crashes: %w", err)
	}
	for _, c := range crashCounts {
		if c < 0 {
			return fmt.Errorf("-crashes: %d is negative; want crash counts of at least 0", c)
		}
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel = %d; want a worker count of at least 1, or 0 for GOMAXPROCS", *parallel)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout = %v; want a wall-time limit above 0, or 0 for no limit", *timeout)
	}
	if *shards < -1 {
		return fmt.Errorf("-shards = %d; want -1 (auto), 0 (message-passing runtime) or a shard count", *shards)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs = %d; want at least 1 replication per cell", *runs)
	}
	if *shards != 0 {
		switch {
		case *lose < 0 || *lose > 1:
			return fmt.Errorf("-lose = %v; want a probability in [0, 1]", *lose)
		case *machines < 2:
			return fmt.Errorf("-m = %d; want at least 2 machines", *machines)
		case *shards > *machines:
			return fmt.Errorf("-shards = %d; want at most one shard per machine (-m = %d)", *shards, *machines)
		case *jobs < 1:
			return fmt.Errorf("-jobs = %d; want at least 1 job", *jobs)
		case *types < 1:
			return fmt.Errorf("-types = %d; want at least 1 job type", *types)
		case *epochs < 1:
			return fmt.Errorf("-epochs = %d; want an epoch budget of at least 1", *epochs)
		}
		scfg := sdef
		scfg.Machines, scfg.Types = *machines, *types
		scfg.LoseProb, scfg.Epochs = *lose, *epochs
		scfg.Jobs, scfg.Runs, scfg.Seed = *jobs, *runs, *seed
		scfg.CrashCounts = crashCounts
		if *shards > 0 {
			scfg.Shards = *shards
		} else {
			scfg.Shards = 0 // AutoShards
		}
		return runShardChaos(scfg, *parallel, *timeout, obs)
	}
	// The instance generator treats bad sizes as programming errors and
	// panics, so command-line input is checked here first.
	switch {
	case *m1 < 1:
		return fmt.Errorf("-m1 = %d; want at least 1 machine", *m1)
	case *m2 < 1:
		return fmt.Errorf("-m2 = %d; want at least 1 machine", *m2)
	case *jobs < 1:
		return fmt.Errorf("-jobs = %d; want at least 1 job", *jobs)
	case *horizon < 1:
		return fmt.Errorf("-horizon = %d; want a virtual-time budget of at least 1", *horizon)
	}
	cfg := def
	cfg.M1, cfg.M2, cfg.Jobs = *m1, *m2, *jobs
	cfg.Runs, cfg.Horizon, cfg.Seed = *runs, *horizon, *seed
	cfg.CrashCounts = crashCounts
	if cfg.LossRates, err = parseFloats(*loss); err != nil {
		return fmt.Errorf("-loss: %w", err)
	}

	sinks, err := obs.setup()
	if err != nil {
		return err
	}
	if obs.timelineOut != "" {
		fmt.Fprintln(os.Stderr, "chaos: a sweep has no single convergence trajectory; the timeline output will be empty (use `hetlb sim --timeline-out` for one run)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, runErr := experiments.ChaosWith(harness.Options{
		Parallelism: *parallel,
		Timeout:     *timeout,
		Context:     ctx,
		Metrics:     sinks.Metrics,
		Spans:       sinks.Spans,
	}, cfg)
	if runErr == nil {
		fmt.Printf("%s", experiments.ChaosTable(results))
		fmt.Printf("%s", plot.ASCII("mean virtual time to 1.1×cent vs loss rate (horizon = never)",
			experiments.ChaosSeries(results, cfg.Horizon), 64, 12))
		fmt.Printf("chaos sweep complete in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if err := obs.flush(sinks); err != nil {
		return err
	}
	return runErr
}

// runShardChaos drives the sharded-engine degradation sweep with the same
// observability plumbing as the message-passing sweep, so `hetlb explain`
// works on the recorded spans (crash/recover fault spans, voided sessions).
func runShardChaos(cfg experiments.ShardChaosConfig, parallel int, timeout time.Duration, obs obsFlags) error {
	sinks, err := obs.setup()
	if err != nil {
		return err
	}
	if obs.timelineOut != "" {
		fmt.Fprintln(os.Stderr, "chaos: a sweep has no single convergence trajectory; the timeline output will be empty (use `hetlb sim --timeline-out` for one run)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, runErr := experiments.ShardChaosWith(harness.Options{
		Parallelism: parallel,
		Timeout:     timeout,
		Context:     ctx,
		Metrics:     sinks.Metrics,
		Spans:       sinks.Spans,
	}, cfg)
	if runErr == nil {
		fmt.Printf("%s", experiments.ShardChaosTable(results))
		fmt.Printf("%s", plot.ASCII("mean Cmax vs fault-free against crash count",
			experiments.ShardChaosSeries(results), 64, 12))
		fmt.Printf("sharded chaos sweep complete in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if err := obs.flush(sinks); err != nil {
		return err
	}
	return runErr
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
