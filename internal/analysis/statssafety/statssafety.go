// Package statssafety implements the hetlbvet check that keeps observability
// strictly one-way: simulation state may flow into obs counters and trace
// events, but nothing the obs layer reports may flow back and steer the
// simulation.
//
// The obs registry exists so that runs can be watched without being changed —
// metrics can be wired in or stripped out and every result stays bit-
// identical (the zero-fault transparency and determinism golden tests assume
// exactly that). A branch like `if metrics.Moves.Value() > k { rebalance() }`
// breaks the property in the nastiest way: the run is still deterministic
// until someone changes which metrics are registered. The span and timeline
// recorders (hetlb/internal/obs/span, .../timeline) are part of the same
// one-way layer: span traces are asserted bit-identical across worker counts,
// which only holds if nothing the recorders report feeds back into the
// simulation. So, in determinism-scoped packages:
//
//   - an obs-layer read accessor (Value, Count, Sum, Total, BucketCount,
//     Len, and the span/timeline reads Spans, Points, Dropped, Root, Seen,
//     Stride) must not appear in an if/for/switch condition;
//   - an obs-layer record call (Inc, Add, Set, SetMax, Observe, and the
//     span/timeline records Append, Record, NextID, SetRoot, Merge, Reset,
//     ClaimNamespaces) must not appear inside a branch whose condition reads
//     the obs layer.
//
// Reporting-only branches (progress printing keyed on a counter) are real and
// allowed — via //hetlb:nondeterministic-ok with a reason saying why the
// branch cannot reach simulation state.
package statssafety

import (
	"go/ast"
	"go/types"

	"hetlb/internal/analysis"
)

// Analyzer is the observation-must-not-steer-simulation check.
var Analyzer = &analysis.Analyzer{
	Name:         "statssafety",
	Doc:          "obs reads must not steer control flow, and obs records must not sit in branches keyed on obs reads, in determinism-scoped packages",
	Run:          run,
	Suppressible: true,
}

var readAccessors = map[string]bool{
	"Value": true, "Count": true, "Sum": true, "Total": true,
	"BucketCount": true, "Len": true,
	// span.Recorder / timeline.Recorder reads.
	"Spans": true, "Points": true, "Dropped": true, "Root": true,
	"Seen": true, "Stride": true,
}

var recordCalls = map[string]bool{
	"Inc": true, "Add": true, "Set": true, "SetMax": true,
	"Observe": true,
	// span.Recorder / timeline.Recorder records. NextID and ClaimNamespaces
	// are records too: they advance allocator state, so gating them on an
	// obs read would shift every later span ID.
	"Append": true, "Record": true, "NextID": true, "SetRoot": true,
	"Merge": true, "Reset": true, "ClaimNamespaces": true,
}

// obsPackages names the packages that form the one-way observability layer.
var obsPackages = map[string]bool{"obs": true, "span": true, "timeline": true}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.IsDeterminismScoped(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		checkConditions(pass, file)
	}
	return nil, nil
}

// checkConditions flags obs reads in conditions and obs records under
// obs-keyed branches.
func checkConditions(pass *analysis.Pass, file *ast.File) {
	// tainted counts how many enclosing branch conditions read the obs layer.
	tainted := 0

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			reads := flagObsReads(pass, n.Cond)
			if reads {
				tainted++
			}
			visitChild(n.Init, visit)
			visitChild(n.Body, visit)
			visitChild(n.Else, visit)
			if reads {
				tainted--
			}
			return false
		case *ast.ForStmt:
			reads := n.Cond != nil && flagObsReads(pass, n.Cond)
			if reads {
				tainted++
			}
			visitChild(n.Init, visit)
			visitChild(n.Post, visit)
			visitChild(n.Body, visit)
			if reads {
				tainted--
			}
			return false
		case *ast.SwitchStmt:
			reads := n.Tag != nil && flagObsReads(pass, n.Tag)
			if reads {
				tainted++
			}
			visitChild(n.Init, visit)
			visitChild(n.Body, visit)
			if reads {
				tainted--
			}
			return false
		case *ast.CallExpr:
			if tainted > 0 {
				if f := obsMethod(pass.TypesInfo, n); f != nil && recordCalls[f.Name()] {
					pass.Reportf(n.Pos(), "obs record %s.%s inside a branch keyed on an obs read: observation would steer what gets observed; record unconditionally or key the branch on simulation state", recvTypeName(f), f.Name())
				}
			}
		}
		return true
	}
	ast.Inspect(file, visit)
}

func visitChild(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		return visit(c)
	})
}

// flagObsReads reports obs read accessors inside cond, flagging each one.
func flagObsReads(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := obsMethod(pass.TypesInfo, call); f != nil && readAccessors[f.Name()] {
			found = true
			pass.Reportf(call.Pos(), "simulation control flow keyed on obs read %s.%s: observation must not steer simulation (results must be identical with metrics stripped); if this branch is reporting-only, annotate //hetlb:nondeterministic-ok with why", recvTypeName(f), f.Name())
		}
		return true
	})
	return found
}

// obsMethod returns the *types.Func when call invokes a method defined on a
// type of an observability-layer package (obs, span, timeline), else nil.
func obsMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	f := analysis.Callee(info, call)
	if f == nil || f.Pkg() == nil || !obsPackages[f.Pkg().Name()] {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return f
}

// recvTypeName renders the receiver type of a method for messages.
func recvTypeName(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if named := analysis.NamedType(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return sig.Recv().Type().String()
}
