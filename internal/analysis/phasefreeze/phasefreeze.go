// Package phasefreeze proves the sharded engine's frozen-per-epoch contract
// mechanically: fields that worker goroutines read without synchronization —
// the fault down-set, the front schedule buffer, the verified-stable latch
// — may be written only by coordinator-phase code.
//
// The PR-9 contract is prose: "down is read-only during an epoch; written
// between epochs". What makes it safe is that every write happens in
// functions reachable only from StepEpoch between the epoch barriers, never
// from the worker pool. That property is a reachability fact on the call
// graph, so it is checked as one: a field marked //hetlb:frozen may be
// written in any coordinator-only function (not reachable from a `go`
// spawn), but a write in worker-concurrent code is a finding carrying the
// spawn path that makes the function concurrent.
//
// One exemption makes the double-buffered schedule checkable: a write whose
// root is a *parameter* of the enclosing function is ownership handoff —
// drawSchedule(b *schedule) fills a back buffer it received over a channel
// and exclusively owns. The receiver deliberately does NOT count: shared
// engine state reached through a receiver is exactly what the check is for.
// Writes that launder a frozen field through a local alias before storing
// are invisible (no points-to analysis); see DESIGN.md §16.
package phasefreeze

import (
	"go/ast"
	"go/token"
	"go/types"

	"hetlb/internal/analysis"
	"hetlb/internal/analysis/flow"
)

// Analyzer is the epoch-frozen field check.
var Analyzer = &analysis.Analyzer{
	Name:         "phasefreeze",
	Doc:          "//hetlb:frozen fields (read by workers without sync) may be written only in coordinator-phase code, never on a worker path",
	Run:          run,
	Suppressible: true,
}

type checker struct {
	pass     *analysis.Pass
	graph    *flow.Graph
	conc     *flow.Concurrency
	ann      *analysis.Annotations
	frozen   map[*types.Var]bool
	consumed map[token.Pos]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.IsConcurrencyScoped(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{
		pass:     pass,
		graph:    flow.Build(pass),
		frozen:   make(map[*types.Var]bool),
		consumed: make(map[token.Pos]bool),
	}
	c.conc = c.graph.Concurrency()
	c.ann, _ = analysis.ParseAnnotations(pass.Fset, pass.Files) // malformed-annotation diags are the driver's
	c.collectFields()
	for _, fn := range c.graph.Funcs {
		if c.conc.Concurrent(fn) {
			c.checkFunc(fn)
		}
	}
	for pos := range c.ann.MarkPositions(analysis.VerbFrozen) {
		if !c.consumed[pos] {
			c.pass.Reportf(pos, "misplaced //hetlb:%s: no struct field on the governed line", analysis.VerbFrozen)
		}
	}
	// A `go` through a function value hides a spawn tree from the
	// reachability check; the engine has none, and any future one must
	// either stay resolvable or carry a suppression here.
	for _, call := range c.graph.UnresolvedGo {
		c.pass.Reportf(call.Pos,
			"go statement with a dynamically-resolved callee: phasefreeze cannot see what this goroutine reaches; spawn a named function or method instead")
	}
	return nil, nil
}

// collectFields resolves //hetlb:frozen marks to field objects.
func (c *checker) collectFields() {
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					pos := c.pass.Fset.Position(name.Pos())
					if mark, ok := c.ann.MarkAt(analysis.VerbFrozen, pos.Filename, pos.Line); ok {
						c.frozen[obj] = true
						c.consumed[mark] = true
					}
				}
			}
			return true
		})
	}
}

// checkFunc scans one worker-concurrent function for frozen-field writes.
func (c *checker) checkFunc(fn *flow.Func) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own graph node, checked separately
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(fn, lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(fn, n.X)
		case *ast.CallExpr:
			// copy(dst, ...) mutates dst's elements: a write for this check.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					c.checkWrite(fn, n.Args[0])
				}
			}
		}
		return true
	})
}

// checkWrite reports lhs if it targets a frozen field from a non-exempt
// root.
func (c *checker) checkWrite(fn *flow.Func, lhs ast.Expr) {
	field := c.frozenFieldOf(lhs)
	if field == nil {
		return
	}
	if root := analysis.RootIdent(lhs); root != nil {
		if obj := c.pass.TypesInfo.Uses[root]; obj != nil && fn.IsParam(obj) {
			// Ownership handoff: the caller passed this buffer in, so the
			// function owns it exclusively (the double-buffered schedule
			// draw). Receivers do not qualify.
			return
		}
	}
	c.pass.Reportf(lhs.Pos(),
		"write to frozen field %s on a worker path (%s): //hetlb:frozen fields are read by workers without synchronization and may be written only in coordinator-phase code (DESIGN.md §16)",
		field.Name(), c.conc.Trace(fn))
}

// frozenFieldOf resolves the first //hetlb:frozen field along lhs's selector
// chain, or nil.
func (c *checker) frozenFieldOf(lhs ast.Expr) *types.Var {
	var found *types.Var
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if found != nil {
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel, ok := c.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if field, ok := sel.Obj().(*types.Var); ok && c.frozen[field] {
					found = field
					return
				}
			}
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		}
	}
	walk(lhs)
	return found
}
