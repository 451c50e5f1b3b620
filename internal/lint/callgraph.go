package lint

import (
	"go/ast"
	"go/types"
)

// Call-graph construction for the hotpath analyzer. The graph is
// intra-package and conservative in the direction the analyzer needs: an edge exists for every static call AND for every bare
// reference to a package function (a function stored or passed as a value may
// be called later, so its body must satisfy the same discipline as its
// referents). Dynamic calls through interfaces or function-typed values have
// no edge; that gap is documented on the Hotpath analyzer.
//
// Function literals are folded into their enclosing declaration: a call made
// inside a closure is an edge from the function that created the closure.
// That over-approximates (the closure may never run) in exactly the safe
// direction for reachability-based checks.

// callGraph is the per-package static call graph.
type callGraph struct {
	pkg *Package

	// decls maps each package-level function or method object to its
	// declaration.
	decls map[*types.Func]*ast.FuncDecl

	// callees lists, per declared function, every package-declared function
	// it references (called or taken as a value).
	callees map[*types.Func][]*types.Func
}

// buildCallGraph constructs the package's call graph.
func buildCallGraph(pkg *Package) *callGraph {
	g := &callGraph{
		pkg:     pkg,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fd
		}
	}
	for obj, fd := range g.decls {
		g.collect(obj, fd.Body)
	}
	return g
}

// collect records every package-function reference inside body as a callee
// of from.
func (g *callGraph) collect(from *types.Func, body ast.Node) {
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if callee := g.resolve(n); callee != nil && !seen[callee] {
				seen[callee] = true
				g.callees[from] = append(g.callees[from], callee)
			}
		case *ast.SelectorExpr:
			if callee := g.resolve(n); callee != nil && !seen[callee] {
				seen[callee] = true
				g.callees[from] = append(g.callees[from], callee)
			}
			// Descend: the selector base may itself reference functions.
		}
		return true
	})
}

// resolve maps an expression used in call or value position to a function
// declared in this package, or nil.
func (g *callGraph) resolve(e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := g.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if _, declared := g.decls[fn]; !declared {
		return nil
	}
	return fn
}

// reachable returns the set of declared functions reachable from the roots
// (inclusive) by following callee edges.
func (g *callGraph) reachable(roots []*types.Func) map[*types.Func]bool {
	set := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || set[fn] {
			return
		}
		set[fn] = true
		for _, c := range g.callees[fn] {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return set
}
