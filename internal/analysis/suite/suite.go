// Package suite enumerates the hetlbvet analyzers. It exists so the driver
// (cmd/hetlbvet), the CI lint job and the suppression-mechanism tests all run
// the same set in the same order.
package suite

import (
	"hetlb/internal/analysis"
	"hetlb/internal/analysis/determinism"
	"hetlb/internal/analysis/noalloc"
	"hetlb/internal/analysis/phasefreeze"
	"hetlb/internal/analysis/rngdiscipline"
	"hetlb/internal/analysis/seedflow"
	"hetlb/internal/analysis/statssafety"
)

// All returns the full analyzer suite in reporting order: the syntactic
// checks first, then the interprocedural flow analyzers (seedflow,
// phasefreeze), which build a call graph per package.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		rngdiscipline.Analyzer,
		noalloc.Analyzer,
		statssafety.Analyzer,
		seedflow.Analyzer,
		phasefreeze.Analyzer,
	}
}

// ByName returns the named analyzers (comma-separated names resolved by the
// driver), preserving suite order. Unknown names return ok=false.
func ByName(names []string) ([]*analysis.Analyzer, bool) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*analysis.Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	return out, len(want) == 0
}
