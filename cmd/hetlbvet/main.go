// Command hetlbvet is the repository's multichecker: it runs the
// project-specific static analyzers over the module and exits non-zero on
// any finding, vet-style. The suite has two layers: the syntactic checks
// (determinism, rngdiscipline, noalloc, statssafety) and the
// interprocedural flow analyzers (seedflow, phasefreeze), which build a
// per-package call graph and carry call-path traces in their diagnostics.
//
// Usage:
//
//	go run ./cmd/hetlbvet ./...
//	go run ./cmd/hetlbvet -analyzers=determinism,noalloc ./internal/gossip
//	go run ./cmd/hetlbvet -sarif=lint.sarif -stats ./...
//
// Exit codes: 0 clean, 1 findings, 2 load or usage error. -sarif writes a
// SARIF 2.1.0 report (also on findings) for CI artifact upload; -stats
// prints per-analyzer finding and suppression counts.
//
// The invariants these analyzers enforce (bit-determinism across worker
// counts, keyed RNG substreams, allocation-free step paths, the sharded
// engine's phase-freeze contract) are documented in DESIGN.md §11, §14 and
// §16; `make lint` and the CI lint job run this binary over the whole tree.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hetlb/internal/analysis"
	"hetlb/internal/analysis/load"
	"hetlb/internal/analysis/suite"
)

func main() {
	os.Exit(run())
}

func run() int {
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this path")
	stats := flag.Bool("stats", false, "print per-analyzer finding and suppression counts")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hetlbvet [flags] packages...\n\n")
		fmt.Fprintf(os.Stderr, "Project-specific static analysis for hetlb; packages may be ./... or directories.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *names != "" {
		sub, ok := suite.ByName(strings.Split(*names, ","))
		if !ok {
			fmt.Fprintf(os.Stderr, "hetlbvet: unknown analyzer in -analyzers=%s\n", *names)
			return 2
		}
		analyzers = sub
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := load.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetlbvet: %v\n", err)
		return 2
	}
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetlbvet: %v\n", err)
		return 2
	}

	var all []located
	var totals analysis.Stats
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetlbvet: %v\n", err)
			return 2
		}
		diags, st, err := analysis.Run(pkg, analyzers, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetlbvet: %s: %v\n", path, err)
			return 2
		}
		totals.Merge(st)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
			all = append(all, located{diag: d, pos: pos})
		}
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, loader.ModuleDir, analyzers, all); err != nil {
			fmt.Fprintf(os.Stderr, "hetlbvet: writing SARIF: %v\n", err)
			return 2
		}
	}
	if *stats {
		printStats(analyzers, totals)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "hetlbvet: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// printStats prints one line per analyzer in suite order, then totals, so
// `make lint-stats` shows where findings and suppressions concentrate.
func printStats(analyzers []*analysis.Analyzer, totals analysis.Stats) {
	var findings, suppressed int
	for _, a := range analyzers {
		f := totals.Findings[a.Name]
		s := totals.Suppressed[a.Name]
		fmt.Printf("%-14s %3d finding(s) %3d suppressed\n", a.Name, f, s)
		findings += f
		suppressed += s
	}
	fmt.Printf("%-14s %3d finding(s) %3d suppressed\n", "total", findings, suppressed)
}
