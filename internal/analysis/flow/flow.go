// Package flow is the interprocedural layer of the analysis framework: a
// per-package call graph, goroutine-entry reachability with spawn traces,
// and per-function value-flow (def-use) summaries. The seedflow and
// phasefreeze analyzers are built on it.
//
// The syntactic analyzers of PR 5 check one function at a time, so a helper
// that launders a raw loop-variable seed, or a worker-path write to a frozen
// field two calls deep, sails through them. The flow layer closes that
// gap for the cases this repository actually has — everything is resolved
// statically within one package:
//
//   - the call graph covers declared functions, methods and function
//     literals; a function literal is linked to its enclosing function both
//     when invoked directly and when merely referenced (stored, passed),
//     which over-approximates reachability in the sound direction;
//   - `go f(...)` and `go func(){...}()` mark goroutine entries; everything
//     reachable from an entry is classified worker-concurrent, and the BFS
//     tree yields a human-readable spawn trace for diagnostics;
//   - value flow is field-sensitive within a function (a Key is a variable
//     plus a field path, so tainting cfg.Seed does not taint cfg.Reps) and
//     summarized at call boundaries by parameter index and field path.
//
// # Soundness limits (see DESIGN.md §16)
//
// Calls through function values, interfaces, or across package boundaries
// are not resolved: a `go` statement whose callee cannot be resolved is
// recorded in Graph.UnresolvedGo rather than silently dropped, and analyzers
// may surface it. Aliasing (writing a frozen field through a local alias)
// is not tracked. These are the same limits the upstream x/tools CFG-less
// checkers accept; the golden testdata pins the shapes that are covered.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hetlb/internal/analysis"
)

// Func is one function of the analyzed package: a declaration (Decl non-nil)
// or a function literal (Lit non-nil).
type Func struct {
	// Obj is the declared function or method object; nil for literals.
	Obj *types.Func
	// Decl / Lit: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Name is the printable name: "session" or "(*Engine).session" for
	// methods, "New$1" for the first literal inside New.
	Name string
	// Body is the function body (never nil: bodiless declarations are not
	// registered).
	Body *ast.BlockStmt
	// Calls lists the call sites inside Body in source order, including
	// reference pseudo-edges to function literals and named functions used
	// as values (Call.Ref true).
	Calls []*Call
	// GoSpawns lists the `go` statements that launch this function, making
	// it a goroutine entry.
	GoSpawns []*Call
	// Enclosing is the lexically enclosing function for literals; nil for
	// declarations.
	Enclosing *Func

	params map[types.Object]int // param object → index (receiver excluded)
}

// Pos returns the function's declaration position.
func (f *Func) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// Type returns the function's signature.
func (f *Func) Type() *types.Signature {
	if f.Obj != nil {
		return f.Obj.Type().(*types.Signature)
	}
	return nil
}

// ParamIndex returns the index of obj among the function's declared
// parameters (receiver excluded), or -1.
func (f *Func) ParamIndex(obj types.Object) int {
	if i, ok := f.params[obj]; ok {
		return i
	}
	return -1
}

// NumParams returns the number of declared parameters (receiver excluded).
func (f *Func) NumParams() int { return len(f.params) }

// IsParam reports whether obj is one of the function's parameters. The
// receiver is NOT a parameter: ownership-handoff exemptions (phasefreeze)
// must not extend to the shared engine state reached through receivers.
func (f *Func) IsParam(obj types.Object) bool {
	_, ok := f.params[obj]
	return ok
}

// Call is one call site (or function-value reference) inside a Func.
type Call struct {
	Caller *Func
	// Callee is the in-package target, or nil for external, builtin or
	// dynamic calls.
	Callee *Func
	// Obj is the resolved callee object even when it is external; nil for
	// literals and dynamic calls.
	Obj *types.Func
	// Site is the call expression; nil for bare function-value references.
	Site *ast.CallExpr
	// Pos positions the edge for diagnostics (the call or the reference).
	Pos token.Pos
	// Go marks a `go` spawn site; Ref marks a reference pseudo-edge (the
	// function is used as a value, not called here).
	Go  bool
	Ref bool
}

// Graph is the package's call graph.
type Graph struct {
	Pass  *analysis.Pass
	Funcs []*Func // declarations in source order, then literals as found
	// UnresolvedGo lists `go` statements whose callee could not be resolved
	// statically (a function value); reachability from those is unknown.
	UnresolvedGo []*Call

	byObj map[*types.Func]*Func
	byLit map[*ast.FuncLit]*Func
}

// FuncOf returns the Func for a declared function object, or nil.
func (g *Graph) FuncOf(obj *types.Func) *Func { return g.byObj[obj] }

// Build constructs the call graph of pass's package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		Pass:  pass,
		byObj: make(map[*types.Func]*Func),
		byLit: make(map[*ast.FuncLit]*Func),
	}
	// Register declarations first so forward calls resolve.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fn := &Func{Obj: obj, Decl: fd, Name: declName(fd), Body: fd.Body}
			fn.params = paramIndexes(pass, fd.Type)
			g.Funcs = append(g.Funcs, fn)
			if obj != nil {
				g.byObj[obj] = fn
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fn := g.byObj[obj]
			if fn == nil { // blank-named or unresolved decl: find by body
				for _, cand := range g.Funcs {
					if cand.Body == fd.Body {
						fn = cand
						break
					}
				}
			}
			if fn != nil {
				g.scan(fn, fd.Body)
			}
		}
	}
	g.resolve()
	return g
}

// scan walks one function body, recording call sites, literal children and
// function-value references. Literal subtrees are scanned under their own
// Func, not the parent's.
func (g *Graph) scan(parent *Func, body ast.Node) {
	goCalls := make(map[*ast.CallExpr]bool)
	callFuns := make(map[*ast.Ident]bool) // idents that ARE the callee of a call
	litSeq := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := &Func{
				Lit:       n,
				Name:      fmt.Sprintf("%s$%d", parent.Name, litSeq+1),
				Body:      n.Body,
				Enclosing: parent,
				params:    paramIndexes(g.Pass, n.Type),
			}
			litSeq++
			g.Funcs = append(g.Funcs, child)
			g.byLit[n] = child
			// Reference edge: the literal is at least reachable from its
			// enclosing function (it may be invoked here, stored, or passed).
			parent.Calls = append(parent.Calls, &Call{Caller: parent, Callee: child, Pos: n.Pos(), Ref: true})
			g.scan(child, n.Body)
			return false
		case *ast.GoStmt:
			goCalls[n.Call] = true
			return true
		case *ast.CallExpr:
			if id := calleeIdent(n); id != nil {
				callFuns[id] = true
			}
			obj := analysis.Callee(g.Pass.TypesInfo, n)
			c := &Call{Caller: parent, Obj: obj, Site: n, Pos: n.Pos(), Go: goCalls[n]}
			parent.Calls = append(parent.Calls, c)
			return true
		case *ast.Ident:
			// A named function used as a value (method value, function
			// handle): conservative reference edge.
			if callFuns[n] {
				return true
			}
			if obj, ok := g.Pass.TypesInfo.Uses[n].(*types.Func); ok && g.byObj[obj] != nil {
				parent.Calls = append(parent.Calls, &Call{Caller: parent, Obj: obj, Pos: n.Pos(), Ref: true})
			}
			return true
		}
		return true
	}
	// Walk children of body (body itself is the parent's own block).
	ast.Inspect(body, walk)
}

// calleeIdent returns the identifier naming the callee of call, or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// resolve links call sites to in-package targets and attaches go-spawn edges
// to their entries.
func (g *Graph) resolve() {
	for _, fn := range g.Funcs {
		for _, c := range fn.Calls {
			if c.Callee == nil && c.Obj != nil {
				c.Callee = g.byObj[c.Obj]
			}
			if !c.Go {
				continue
			}
			switch {
			case c.Callee != nil:
				c.Callee.GoSpawns = append(c.Callee.GoSpawns, c)
			case c.Site != nil:
				if lit, ok := ast.Unparen(c.Site.Fun).(*ast.FuncLit); ok {
					if child := g.byLit[lit]; child != nil {
						child.GoSpawns = append(child.GoSpawns, c)
						continue
					}
				}
				g.UnresolvedGo = append(g.UnresolvedGo, c)
			}
		}
	}
}

// declName renders a declaration's printable name, "(*Engine).session" for
// methods.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	var b strings.Builder
	writeRecv(&b, recv)
	return "(" + b.String() + ")." + fd.Name.Name
}

func writeRecv(b *strings.Builder, t ast.Expr) {
	switch t := t.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecv(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver
		writeRecv(b, t.X)
	default:
		b.WriteString("?")
	}
}

// paramIndexes maps declared parameter objects to their index.
func paramIndexes(pass *analysis.Pass, ft *ast.FuncType) map[types.Object]int {
	params := make(map[types.Object]int)
	i := 0
	if ft.Params == nil {
		return params
	}
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			i++ // unnamed parameter still occupies an index
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				params[obj] = i
			}
			i++
		}
	}
	return params
}

// Concurrency classifies the package's functions by whether they may run
// concurrently with the coordinator: reachable from any goroutine entry
// (a function spawned by a `go` statement), through calls or function-value
// references. The BFS tree retains, for each reachable function, the edge by
// which it was first reached, so diagnostics can print the spawn path.
type Concurrency struct {
	fset    *token.FileSet
	entries []*Func
	parent  map[*Func]*Call // BFS tree: how fn was first reached (nil for entries)
}

// Concurrency computes the worker-concurrent classification. Deterministic:
// entries and edges are visited in source order.
func (g *Graph) Concurrency() *Concurrency {
	c := &Concurrency{fset: g.Pass.Fset, parent: make(map[*Func]*Call)}
	var queue []*Func
	for _, fn := range g.Funcs {
		if len(fn.GoSpawns) > 0 {
			c.entries = append(c.entries, fn)
			c.parent[fn] = nil
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, call := range fn.Calls {
			if call.Callee == nil {
				continue
			}
			if _, seen := c.parent[call.Callee]; seen {
				continue
			}
			c.parent[call.Callee] = call
			queue = append(queue, call.Callee)
		}
	}
	return c
}

// Concurrent reports whether fn may execute concurrently with the
// coordinator (it is a goroutine entry or reachable from one).
func (c *Concurrency) Concurrent(fn *Func) bool {
	_, ok := c.parent[fn]
	return ok
}

// Entries returns the goroutine-entry functions in source order.
func (c *Concurrency) Entries() []*Func { return c.entries }

// Trace renders the spawn path by which fn is worker-concurrent, e.g.
// "worker (goroutine started at engine.go:42) → runSessions → session".
func (c *Concurrency) Trace(fn *Func) string {
	if !c.Concurrent(fn) {
		return ""
	}
	var chain []*Func
	cur := fn
	for {
		chain = append(chain, cur)
		edge := c.parent[cur]
		if edge == nil {
			break
		}
		cur = edge.Caller
	}
	var b strings.Builder
	for i := len(chain) - 1; i >= 0; i-- {
		f := chain[i]
		if i == len(chain)-1 {
			spawn := f.GoSpawns[0]
			fmt.Fprintf(&b, "%s (goroutine started at %s)", f.Name, c.fset.Position(spawn.Pos))
		} else {
			fmt.Fprintf(&b, " → %s", f.Name)
		}
	}
	return b.String()
}
