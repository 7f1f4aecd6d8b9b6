package main

import (
	"go/ast"
	"strings"
)

// analyzerCtxDiscipline guards the cancellation contract from PR 5:
// every engine hot loop polls its context, which only works when the
// context actually reaches the loop. Exported entry points in the
// engine, distribution, serving, and facade packages that iterate over
// shards or transactions must accept ctx context.Context as their
// first parameter; and contexts must flow through call chains, never
// hide in struct fields where they outlive their caller (the
// ctxFieldAllowlist names the session types permitted to carry one).
//
// The typed pass resolves context.Context by type identity, so type
// aliases (type reqCtx = context.Context) and renamed imports cannot
// smuggle a stored context past the gate the way they could past the
// selector-text match.
var analyzerCtxDiscipline = &Analyzer{
	Name:     "ctxdiscipline",
	Packages: []string{"assoc", "dist", "serve", "mining"},
	Run:      runCtxDiscipline,
}

// ctxFieldAllowlist names struct types allowed to store a
// context.Context (long-lived session carriers with documented
// lifecycles). Empty today: every current type threads ctx through
// calls instead.
var ctxFieldAllowlist = map[string]bool{}

// runCtxDiscipline reports exported shard-looping functions without a
// leading ctx parameter and struct fields that capture a context.
func runCtxDiscipline(f *SrcFile) []Finding {
	var out []Finding
	funcBodies(f, func(fd *ast.FuncDecl) {
		if !fd.Name.IsExported() {
			return
		}
		loop := shardLoopPos(fd)
		if loop == nil {
			return
		}
		if !firstParamIsCtx(f, fd) {
			out = append(out, f.finding("ctxdiscipline", fd.Pos(),
				"exported %s loops over shards/transactions but does not take ctx context.Context as its first parameter; hot loops must be cancellable", fd.Name.Name))
		}
	})
	for _, decl := range f.File.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ctxFieldAllowlist[ts.Name.Name] {
				continue
			}
			for _, field := range st.Fields.List {
				if isContextType(f, field.Type) {
					out = append(out, f.finding("ctxdiscipline", field.Pos(),
						"struct %s stores a context.Context; pass ctx through calls (or allowlist a session type with a documented lifecycle)", ts.Name.Name))
				}
			}
		}
	}
	return out
}

// shardLoopPos returns the first loop in fd whose header ranges over or
// conditions on a shard/transaction expression, nil when none does.
// Only the loop header counts: mentioning shards in a body statement is
// not iteration over them.
func shardLoopPos(fd *ast.FuncDecl) ast.Node {
	var found ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch st := n.(type) {
		case *ast.RangeStmt:
			if mentionsShardish(st.X) {
				found = st
			}
		case *ast.ForStmt:
			if st.Cond != nil && mentionsShardish(st.Cond) {
				found = st
			}
		}
		return true
	})
	return found
}

// mentionsShardish reports whether the expression's identifiers name
// shards or transactions (case-insensitive substring match).
func mentionsShardish(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		var name string
		switch v := n.(type) {
		case *ast.Ident:
			name = v.Name
		case *ast.SelectorExpr:
			name = v.Sel.Name
		default:
			return true
		}
		lower := strings.ToLower(name)
		if strings.Contains(lower, "shard") || strings.Contains(lower, "transact") {
			found = true
			return false
		}
		return true
	})
	return found
}

// firstParamIsCtx reports whether fd's first parameter is
// ctx context.Context (both the name and the type are part of the
// contract: callers grep for ctx, and the name is what the hot-loop
// polling helpers close over).
func firstParamIsCtx(f *SrcFile, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	first := fd.Type.Params.List[0]
	if len(first.Names) == 0 || first.Names[0].Name != "ctx" {
		return false
	}
	return isContextType(f, first.Type)
}

// isContextType reports whether the type expression denotes
// context.Context, resolved through the checker so aliases and renamed
// imports count.
func isContextType(f *SrcFile, t ast.Expr) bool {
	return isNamedType(f.typeOf(t), "context", "Context")
}
