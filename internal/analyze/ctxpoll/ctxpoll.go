// Package ctxpoll checks that the long-running consumption loops stay
// cancellable. A function that has a context available (a
// context.Context parameter, or an *http.Request to take one from) and
// loops over trace input — trace.Reader.ReadBatch decode loops,
// Simulator.Access/AccessAll feed loops — must poll that context from
// the loop: the softcache convention is a ctx.Err() check per batch of
// trace.BatchSize records (see core.Run).
//
// The poll may live in an enclosing loop of the same function: in the
// fused kernels the outer per-batch loop polls once and the inner
// per-simulator loop inherits that, which is exactly the bounded-work
// pattern the convention blesses. A poll before the loop does not
// count — it runs once, after which cancellation goes unnoticed for
// the rest of the trace.
//
// Functions with no context in scope (cache.Simulator.AccessAll, a
// test's reference Access loop) are out of scope by design: they
// advertise no cancellation contract.
// Loops that merely iterate without touching trace input — unit
// deduplication, result assembly — are not consumption loops and are
// never flagged.
package ctxpoll

import (
	"go/ast"
	"go/types"

	"softcache/internal/analyze"
)

// Analyzer is the ctxpoll invariant check.
var Analyzer = &analyze.Analyzer{
	Name: "ctxpoll",
	Doc:  "trace-consuming loops in context-aware functions must poll the context",
	Run:  run,
}

// workMethods are the calls that mark a loop as consuming trace input,
// keyed by method name -> defining package name.
var workMethods = map[string]map[string]bool{
	"ReadBatch": {"trace": true},
	"Access":    {"cache": true},
	"AccessAll": {"cache": true},
}

func run(pass *analyze.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !contextAvailable(pass, fd) {
				continue
			}
			walk(pass, fd.Body, false)
		}
	}
	return nil
}

// contextAvailable reports whether the function can poll at all: it
// has a context.Context parameter or an *http.Request to derive one
// from. Receivers are not considered — no softcache type stores a
// context.
func contextAvailable(pass *analyze.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if isContext(tv.Type) || isHTTPRequest(tv.Type) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isHTTPRequest(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// walk descends the statement tree. enclosingPolls carries whether
// some enclosing loop's body already contains a context expression —
// that poll re-executes each outer iteration and covers the inner
// loop.
func walk(pass *analyze.Pass, n ast.Node, enclosingPolls bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		var body *ast.BlockStmt
		switch st := node.(type) {
		case *ast.ForStmt:
			body = st.Body
		case *ast.RangeStmt:
			body = st.Body
		case *ast.FuncLit:
			// A literal captures the enclosing context variable, so it
			// is checked in the same scope — but loops around the
			// literal do not poll on the literal's behalf once it runs.
			walk(pass, st.Body, false)
			return false
		default:
			return true
		}
		polls := enclosingPolls || pollsContext(pass, body)
		if !polls {
			if work := workCall(pass, body); work != nil {
				pos := pass.Position(work.Pos())
				pass.Reportf(node.Pos(),
					"loop consumes trace input (%s at line %d) but never polls the context; add a ctx.Err() check per batch",
					work.Sel.Name, pos.Line)
			}
		}
		walk(pass, body, polls)
		return false
	})
}

// pollsContext reports whether any expression of type context.Context
// appears in the body: ctx.Err(), ctx.Done(), r.Context(), or passing
// ctx onward to a callee that honours it.
func pollsContext(pass *analyze.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		if tv, ok := pass.TypesInfo.Types[expr]; ok && isContext(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// workCall returns the first trace-consuming call in the body, if any.
func workCall(pass *analyze.Pass, body *ast.BlockStmt) *ast.SelectorExpr {
	var work *ast.SelectorExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if work != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgs, ok := workMethods[sel.Sel.Name]
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !pkgs[fn.Pkg().Name()] {
			return true
		}
		work = sel
		return false
	})
	return work
}
