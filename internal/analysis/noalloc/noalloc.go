// Package noalloc implements the hetlbvet check for //hetlb:noalloc
// functions: the scratch-buffer kernels and engine step paths that PR 3 made
// allocation-free and that the step benchmarks assume stay that way.
//
// The static rules are necessarily approximate — Go's escape analysis is not
// re-run here — so the check targets the allocation shapes that actually
// regressed or nearly regressed during development:
//
//   - make(...) of anything;
//   - map and function literals (closures always allocate once they escape,
//     and in a step path they escape);
//   - append that grows a slice the caller does not own: appending to a
//     parameter or into a *Scratch-rooted buffer reuses warm capacity, while
//     appending to a fresh local is a hidden make;
//   - interface boxing at call sites: passing a concrete value to an
//     interface parameter heap-allocates the box.
//
// Amortized growth paths (a buffer reaching its high-water mark) are real and
// fine; they carry //hetlb:alloc-ok with a reason. The companion dynamic
// check — testing.AllocsPerRun == 0 guards over every annotated kernel —
// catches whatever this analyzer's approximation misses.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hetlb/internal/analysis"
)

// Analyzer is the noalloc check.
var Analyzer = &analysis.Analyzer{
	Name:         "noalloc",
	Doc:          "functions annotated //hetlb:noalloc must not make, build map/closure literals, grow non-scratch slices, or box interfaces at call sites",
	Run:          run,
	Suppressible: true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		docLines := make(map[int]bool) // lines covered by some FuncDecl doc
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			annotated := false
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					docLines[pass.Fset.Position(c.Pos()).Line] = true
					if isNoallocComment(c) {
						annotated = true
					}
				}
			}
			if annotated && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
		// A //hetlb:noalloc anywhere but a function doc comment silently
		// protects nothing; that is a finding, not a no-op.
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if isNoallocComment(c) && !docLines[pass.Fset.Position(c.Pos()).Line] {
					pass.Report(analysis.Diagnostic{
						Pos:     c.Pos(),
						Message: "misplaced //hetlb:noalloc: it must be part of a function's doc comment to mark that function",
					})
				}
			}
		}
	}
	return nil, nil
}

func isNoallocComment(c *ast.Comment) bool {
	return c.Text == analysis.AnnotationPrefix+analysis.VerbNoalloc
}

// checkFunc applies the allocation rules to one annotated function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	scratch := scratchRoots(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in //hetlb:noalloc function %s allocates", fd.Name.Name)
			return false // the literal's own body runs under its own rules
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal in //hetlb:noalloc function %s allocates", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n, scratch)
		}
		return true
	})
}

// checkCall handles the three call shapes: make, append, and boxing.
func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, scratch map[types.Object]bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch pass.TypesInfo.Uses[id] {
		case types.Universe.Lookup("make"):
			pass.Reportf(call.Pos(), "make in //hetlb:noalloc function %s allocates (amortized warm-up growth needs //hetlb:alloc-ok with a reason)", fd.Name.Name)
			return
		case types.Universe.Lookup("new"):
			pass.Reportf(call.Pos(), "new in //hetlb:noalloc function %s allocates", fd.Name.Name)
			return
		case types.Universe.Lookup("append"):
			if len(call.Args) == 0 {
				return
			}
			if root := analysis.RootIdent(call.Args[0]); root == nil || !isScratchRooted(pass, root, scratch) {
				pass.Reportf(call.Pos(), "append grows a non-scratch slice in //hetlb:noalloc function %s: append only into parameters or *Scratch buffers (warm, caller-owned capacity)", fd.Name.Name)
			}
			return
		}
	}
	// Interface boxing: a concrete argument passed to an interface parameter.
	sig, ok := typeAsSignature(pass.TypesInfo.TypeOf(call.Fun))
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || isUntypedNil(at) {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
			continue // constants box into read-only static data, not the heap
		}
		if types.IsInterface(pt) && !types.IsInterface(at) {
			pass.Reportf(arg.Pos(), "interface boxing in //hetlb:noalloc function %s: %s argument allocates when boxed into %s", fd.Name.Name, at, pt)
		}
	}
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// scratchRoots computes the set of local objects that alias caller-owned or
// scratch memory: the receiver, every parameter, and (in declaration order)
// locals defined from an expression rooted at one of those — e.g.
// `to1 := s.To1[:0]` or `second := s.Sides(n)`.
func scratchRoots(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					roots[obj] = true
				}
			}
		}
	}
	addField(fd.Recv)
	addField(fd.Type.Params)

	// Forward pass in source order: defines see earlier marks.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			root := analysis.RootIdent(as.Rhs[i])
			if root == nil {
				continue
			}
			if isScratchRooted(pass, root, roots) {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					roots[obj] = true
				}
			}
		}
		return true
	})
	return roots
}

// isScratchRooted reports whether the identifier denotes caller-owned or
// scratch memory: a known root object, or any variable whose (pointer-
// stripped) named type mentions Scratch.
func isScratchRooted(pass *analysis.Pass, id *ast.Ident, roots map[types.Object]bool) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	if roots[obj] {
		return true
	}
	if named := analysis.NamedType(obj.Type()); named != nil && strings.Contains(named.Obj().Name(), "Scratch") {
		return true
	}
	return false
}
