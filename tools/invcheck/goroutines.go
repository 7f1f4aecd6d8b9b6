package main

import (
	"go/ast"
)

// analyzerGoroutines guards against silent goroutine leaks: the chaos
// and cancellation property tests end with goroutine-leak checks, and
// every leak they have caught came from a go statement with no join in
// sight. The rule is lexical: a go statement must share its top-level
// function with a WaitGroup or channel join — a .Wait() call, a channel
// receive, or a wg.Done() inside the launched body (the WaitGroup being
// the join token even when Wait lives in Close). Goroutines joined
// outside their top-level function (a server loop joined by Close) carry a
// reasoned suppression instead.
var analyzerGoroutines = &Analyzer{
	Name: "goroutines",
	Run:  runGoroutines,
}

// runGoroutines reports go statements whose enclosing top-level
// function shows no join evidence.
func runGoroutines(f *SrcFile) []Finding {
	var out []Finding
	funcBodies(f, func(fd *ast.FuncDecl) {
		var goStmts []*ast.GoStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				goStmts = append(goStmts, gs)
			}
			return true
		})
		if len(goStmts) == 0 {
			return
		}
		joined := funcHasJoin(fd)
		for _, gs := range goStmts {
			if joined || goBodyHasDone(gs) {
				continue
			}
			out = append(out, f.finding("goroutines", gs.Pos(),
				"go statement in %s has no lexically-paired join (WaitGroup or channel receive); join it or suppress with a documented lifecycle", fd.Name.Name))
		}
	})
	return out
}

// funcHasJoin reports whether fd's body contains join evidence: a
// .Wait() call (sync.WaitGroup, errgroup) or a channel receive
// (including receives inside select clauses and range-drains appear as
// unary <- expressions or assignment receives).
func funcHasJoin(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(v.Args) == 0 {
				found = true
				return false
			}
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// goBodyHasDone reports whether the go statement launches a function
// literal that calls .Done() (typically defer wg.Done()), the WaitGroup
// discipline that pairs with a Wait elsewhere in the type's lifecycle.
func goBodyHasDone(gs *ast.GoStmt) bool {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(call.Args) == 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
