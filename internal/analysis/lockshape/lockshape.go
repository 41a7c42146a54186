// Package lockshape proves the sharded engine's locking invariant
// mechanically: no path through a shardgossip session holds two shard
// mutexes at once, and writes to //hetlb:guarded fields happen under a
// shard lock — or on the coordinator, which owns all quiesced state between
// barriers. The engine's sessions take no lock today; should a lock
// return, the check holds it to this shape.
//
// The at-most-one-shard-mutex rule is what makes an engine deadlock-free
// without lock ordering (DESIGN.md §16): a session that takes one block
// mutex for a few integer operations and never nests it cannot deadlock. A
// refactor that takes a second lock two calls deep would deadlock only under
// a cross-shard schedule on a loaded machine — exactly the kind of bug that
// survives tests. So the analyzer abstract-interprets every function with a
// held-mutex count: Lock on a shard mutex while one is held is a finding,
// and so is a call into a function whose summary says it may acquire one.
// Branches take the maximum of their arms; net-acquiring loop bodies are
// walked twice so the second iteration sees the first's lock.
//
// Guarded-field writes are checked against the worker/coordinator split from
// the package call graph: a write with no lock held is a finding only in
// worker-concurrent code (reachable from a `go` spawn). A write whose safety
// argument (say, a barrier between two fan-outs) is outside the lock shape
// carries a reasoned //hetlb:concurrency-ok, which is the point: the proof
// boundary is written down where it is crossed.
//
// Soundness limits: holding *a* shard mutex is taken as holding the *owning*
// one (lock identity is not tracked), mutexes reached through aliases or
// copies are invisible, and an unresolved `go` through a function value
// hides its spawn tree (flow.Graph.UnresolvedGo). See DESIGN.md §16.
package lockshape

import (
	"go/ast"
	"go/token"
	"go/types"

	"hetlb/internal/analysis"
	"hetlb/internal/analysis/flow"
)

// Analyzer is the shard-mutex shape check.
var Analyzer = &analysis.Analyzer{
	Name:         "lockshape",
	Doc:          "no path may hold two shard mutexes; //hetlb:guarded fields are written only under a shard lock or on the coordinator",
	Run:          run,
	Suppressible: true,
}

type summary struct {
	mayAcquire bool   // acquires a shard mutex somewhere inside
	net        int    // locks still held when the function returns
	trace      string // call chain to the innermost Lock, for messages
}

type checker struct {
	pass      *analysis.Pass
	graph     *flow.Graph
	conc      *flow.Concurrency
	ann       *analysis.Annotations
	mutexes   map[*types.Var]bool // in-package struct fields of type sync.Mutex
	guarded   map[*types.Var]bool // fields marked //hetlb:guarded
	summaries map[*flow.Func]summary
	consumed  map[token.Pos]bool // guarded marks that matched a field
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.IsConcurrencyScoped(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		graph:     flow.Build(pass),
		summaries: make(map[*flow.Func]summary),
		mutexes:   make(map[*types.Var]bool),
		guarded:   make(map[*types.Var]bool),
		consumed:  make(map[token.Pos]bool),
	}
	c.conc = c.graph.Concurrency()
	c.ann, _ = analysis.ParseAnnotations(pass.Fset, pass.Files) // malformed-annotation diags are the driver's
	c.collectFields()
	c.buildSummaries()
	for _, fn := range c.graph.Funcs {
		w := &walker{c: c, fn: fn, report: true}
		w.stmts(fn.Body.List, 0)
	}
	c.reportMisplacedMarks()
	return nil, nil
}

// collectFields finds the shard mutex fields (any sync.Mutex field of an
// in-package struct — the scoped package's convention is that such a field
// guards its struct's shard-local state) and the //hetlb:guarded fields.
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
					if isSyncMutex(obj.Type()) {
						c.mutexes[obj] = true
					}
					pos := c.pass.Fset.Position(name.Pos())
					if mark, ok := c.ann.MarkAt(analysis.VerbGuarded, pos.Filename, pos.Line); ok {
						c.guarded[obj] = true
						c.consumed[mark] = true
					}
				}
			}
			return true
		})
	}
}

func isSyncMutex(t types.Type) bool {
	named := analysis.NamedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Name() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// reportMisplacedMarks flags //hetlb:guarded comments whose governed line
// holds no struct field: the mark is checked, not trusted, exactly like a
// misplaced //hetlb:noalloc.
func (c *checker) reportMisplacedMarks() {
	for pos := range c.ann.MarkPositions(analysis.VerbGuarded) {
		if !c.consumed[pos] {
			c.pass.Reportf(pos, "misplaced //hetlb:%s: no struct field on the governed line", analysis.VerbGuarded)
		}
	}
}

// buildSummaries computes each function's lock summary to a fixpoint, in
// source order per round for determinism.
func (c *checker) buildSummaries() {
	for changed := true; changed; {
		changed = false
		for _, fn := range c.graph.Funcs {
			w := &walker{c: c, fn: fn}
			exit := w.stmts(fn.Body.List, 0)
			s := summary{
				mayAcquire: w.acquired,
				net:        exit + w.deferNet,
				trace:      w.acquireTrace,
			}
			if s != c.summaries[fn] {
				c.summaries[fn] = s
				changed = true
			}
		}
	}
}

// walker abstract-interprets one function body with a held-mutex count.
type walker struct {
	c            *checker
	fn           *flow.Func
	report       bool
	deferNet     int    // deferred Unlocks, applied at function exit
	acquired     bool   // saw a Lock (or a call that may Lock)
	acquireTrace string // chain to the innermost Lock
}

func (w *walker) stmts(list []ast.Stmt, h int) int {
	for _, s := range list {
		h = w.stmt(s, h)
	}
	return h
}

func (w *walker) stmt(s ast.Stmt, h int) int {
	switch s := s.(type) {
	case nil:
		return h
	case *ast.ExprStmt:
		return w.expr(s.X, h)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			h = w.expr(rhs, h)
		}
		for _, lhs := range s.Lhs {
			w.checkGuardedWrite(lhs, h)
			h = w.expr(lhs, h)
		}
		return h
	case *ast.IncDecStmt:
		w.checkGuardedWrite(s.X, h)
		return w.expr(s.X, h)
	case *ast.DeferStmt:
		if kind := w.mutexCallKind(s.Call); kind == "Unlock" {
			w.deferNet--
			return h
		} else if kind == "Lock" {
			// A deferred Lock is senseless; treat as acquiring now so the
			// double-lock check still sees it.
			return w.lockAt(s.Call.Pos(), h)
		}
		return w.expr(s.Call, h)
	case *ast.GoStmt:
		// The spawned body is its own graph node; the spawn itself neither
		// acquires nor releases in this goroutine. Arguments may.
		for _, arg := range s.Call.Args {
			h = w.expr(arg, h)
		}
		return h
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			h = w.expr(r, h)
		}
		return h
	case *ast.IfStmt:
		h = w.stmt(s.Init, h)
		h = w.expr(s.Cond, h)
		h1 := w.stmt(s.Body, h)
		h2 := h
		if s.Else != nil {
			h2 = w.stmt(s.Else, h)
		}
		return maxInt(h1, h2)
	case *ast.ForStmt:
		h = w.stmt(s.Init, h)
		if s.Cond != nil {
			h = w.expr(s.Cond, h)
		}
		body := func(entry int) int {
			e := w.stmt(s.Body, entry)
			return w.stmt(s.Post, e)
		}
		h1 := body(h)
		if h1 > h {
			// Net-acquiring loop body: the second iteration enters with the
			// first's lock still held — walk again so Lock-while-held fires.
			h1 = body(h1)
		}
		return maxInt(h, h1)
	case *ast.RangeStmt:
		h = w.expr(s.X, h)
		h1 := w.stmt(s.Body, h)
		if h1 > h {
			h1 = w.stmt(s.Body, h1)
		}
		return maxInt(h, h1)
	case *ast.BlockStmt:
		return w.stmts(s.List, h)
	case *ast.SwitchStmt:
		h = w.stmt(s.Init, h)
		if s.Tag != nil {
			h = w.expr(s.Tag, h)
		}
		return w.caseMax(s.Body, h)
	case *ast.TypeSwitchStmt:
		h = w.stmt(s.Init, h)
		h = w.stmt(s.Assign, h)
		return w.caseMax(s.Body, h)
	case *ast.SelectStmt:
		return w.caseMax(s.Body, h)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, h)
	case *ast.SendStmt:
		h = w.expr(s.Chan, h)
		return w.expr(s.Value, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						h = w.expr(v, h)
					}
				}
			}
		}
		return h
	default:
		return h
	}
}

// caseMax folds a switch/select body: every clause starts at the entry
// count; the exit is the maximum across clauses.
func (w *walker) caseMax(body *ast.BlockStmt, h int) int {
	out := h
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				h = w.expr(e, h)
			}
			stmts = cl.Body
		case *ast.CommClause:
			h = w.stmt(cl.Comm, h)
			stmts = cl.Body
		}
		out = maxInt(out, w.stmts(stmts, h))
	}
	return out
}

// expr walks an expression in evaluation order, interpreting mutex calls and
// in-package calls through their summaries.
func (w *walker) expr(e ast.Expr, h int) int {
	if e == nil {
		return h
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case nil:
		case *ast.CallExpr:
			for _, arg := range x.Args {
				walk(arg)
			}
			switch w.mutexCallKind(x) {
			case "Lock":
				h = w.lockAt(x.Pos(), h)
				return
			case "Unlock":
				if h > 0 {
					h--
				}
				return
			}
			walk(x.Fun)
			if callee := w.calleeFunc(x); callee != nil {
				s := w.c.summaries[callee]
				if s.mayAcquire {
					w.acquired = true
					if w.acquireTrace == "" {
						// s.trace already starts at callee's name.
						w.acquireTrace = w.fn.Name + " → " + s.trace
					}
					if h >= 1 && w.report {
						w.c.pass.Reportf(x.Pos(),
							"second shard mutex acquired while one is held: call path %s → %s takes another shard lock; sessions may take at most one (DESIGN.md §14)",
							w.fn.Name, s.trace)
					}
				}
				h += s.net
			}
		case *ast.FuncLit:
			// Its body is a separate graph node with its own walk.
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.SliceExpr:
			walk(x.X)
			walk(x.Low)
			walk(x.High)
			walk(x.Max)
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				walk(elt)
			}
		case *ast.KeyValueExpr:
			walk(x.Value)
		case *ast.TypeAssertExpr:
			walk(x.X)
		}
	}
	walk(e)
	return h
}

// lockAt interprets one Lock acquisition at pos.
func (w *walker) lockAt(pos token.Pos, h int) int {
	w.acquired = true
	if w.acquireTrace == "" {
		w.acquireTrace = w.fn.Name
	}
	if h >= 1 && w.report {
		w.c.pass.Reportf(pos,
			"second shard mutex acquired while one is already held in %s: sessions may take at most one shard lock at a time (DESIGN.md §14)",
			w.fn.Name)
	}
	return h + 1
}

// mutexCallKind classifies call as Lock/Unlock on a shard mutex field
// ("" otherwise).
func (w *walker) mutexCallKind(call *ast.CallExpr) string {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := fun.Sel.Name
	if name != "Lock" && name != "Unlock" && name != "RLock" && name != "RUnlock" {
		return ""
	}
	recv, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	sel, ok := w.c.pass.TypesInfo.Selections[recv]
	if !ok || sel.Kind() != types.FieldVal {
		return ""
	}
	field, ok := sel.Obj().(*types.Var)
	if !ok || !w.c.mutexes[field] {
		return ""
	}
	if name == "RLock" {
		return "Lock"
	}
	if name == "RUnlock" {
		return "Unlock"
	}
	return name
}

// calleeFunc resolves an in-package call target.
func (w *walker) calleeFunc(call *ast.CallExpr) *flow.Func {
	if f := analysis.Callee(w.c.pass.TypesInfo, call); f != nil {
		return w.c.graph.FuncOf(f)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return w.c.graph.FuncOfLit(lit)
	}
	return nil
}

// checkGuardedWrite reports a write to a //hetlb:guarded field with no shard
// lock held — unless the enclosing function is coordinator-only, which owns
// all shard state between barriers by construction.
func (w *walker) checkGuardedWrite(lhs ast.Expr, h int) {
	if !w.report || h >= 1 {
		return
	}
	field := guardedFieldOf(w.c, lhs)
	if field == nil {
		return
	}
	if !w.c.conc.Concurrent(w.fn) {
		return // coordinator-phase write: between barriers it owns the state
	}
	w.c.pass.Reportf(lhs.Pos(),
		"write to guarded field %s without holding its shard mutex on a worker path (%s): //hetlb:guarded fields are written under the owning shard's lock (DESIGN.md §14)",
		field.Name(), w.c.conc.Trace(w.fn))
}

// guardedFieldOf resolves the first //hetlb:guarded field along lhs's
// selector chain, or nil.
func guardedFieldOf(c *checker, lhs ast.Expr) *types.Var {
	var found *types.Var
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if found != nil {
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel, ok := c.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if field, ok := sel.Obj().(*types.Var); ok && c.guarded[field] {
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
