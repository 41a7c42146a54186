package analysis

import "strings"

// determinismScoped lists the packages (by final path element) whose results
// feed the paper's reproduced numbers and therefore must be bit-deterministic:
// the simulation core and runtimes, the drivers, the fault layer — plus the
// reduction/emission packages (stats, plot, evaluation), because the order in
// which CSV rows and summaries are emitted is part of the golden output.
//
// The span and timeline recorders are scoped too: span traces are asserted
// bit-identical across harness worker counts, so the recorders themselves may
// not touch wall clock, global math/rand, or map order — logical time only.
//
// Matching by final element (rather than the full "hetlb/internal/..." path)
// lets analysistest packages opt into the scope by directory name.
var determinismScoped = map[string]bool{
	"core":        true,
	"pairwise":    true,
	"gossip":      true,
	"netsim":      true,
	"des":         true,
	"shardgossip": true,
	"worksteal":   true,
	"harness":     true,
	"experiments": true,
	"workload":    true,
	"faults":      true,
	"stats":       true,
	"plot":        true,
	"evaluation":  true,
	"span":        true,
	"timeline":    true,
}

// IsDeterminismScoped reports whether the package at pkgPath is subject to
// the determinism and statssafety analyzers.
func IsDeterminismScoped(pkgPath string) bool {
	return determinismScoped[pathBase(pkgPath)]
}

// concurrencyScoped lists the packages (by final path element, like the
// determinism scope) whose lock and phase shapes the lockshape and
// phasefreeze analyzers prove: today only the sharded engine — it is the one
// package where worker goroutines read coordinator state without
// synchronization under a prose contract (DESIGN.md §16).
var concurrencyScoped = map[string]bool{
	"shardgossip": true,
}

// IsConcurrencyScoped reports whether the package at pkgPath is subject to
// the lockshape and phasefreeze analyzers.
func IsConcurrencyScoped(pkgPath string) bool {
	return concurrencyScoped[pathBase(pkgPath)]
}

func pathBase(pkgPath string) string {
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}
