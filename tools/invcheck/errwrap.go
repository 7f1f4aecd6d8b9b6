package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerErrWrap guards the error-discipline contract from PR 6:
// package-level error sentinels (ErrNoHealthyWorkers, ErrWALFailed,
// io.EOF, …) travel through retry loops, transports, and facade layers
// wrapped in context, so direct ==/!= comparisons and %v formatting
// silently stop matching the moment anyone adds a wrap. errors.Is and
// %w are the only forms that survive composition.
//
// The typed pass resolves sentinels as objects: any package-level
// variable whose type implements error is a sentinel, whatever it is
// named — the syntactic Err[A-Z]* pattern missed lower-cased and
// imported sentinels (io.EOF, context.Canceled) and fired on
// non-error identifiers that merely looked the part.
var analyzerErrWrap = &Analyzer{
	Name: "errwrap",
	Run:  runErrWrap,
}

// runErrWrap reports ==/!= comparisons against sentinels, switch cases
// on sentinels, and fmt.Errorf calls that format a sentinel without %w.
func runErrWrap(f *SrcFile) []Finding {
	var out []Finding
	ast.Inspect(f.File, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BinaryExpr:
			if v.Op != token.EQL && v.Op != token.NEQ {
				return true
			}
			if name := sentinelName(f, v.X); name != "" {
				out = append(out, f.finding("errwrap", v.Pos(),
					"sentinel %s compared with %s; use errors.Is so wrapped errors still match", name, v.Op))
			} else if name := sentinelName(f, v.Y); name != "" {
				out = append(out, f.finding("errwrap", v.Pos(),
					"sentinel %s compared with %s; use errors.Is so wrapped errors still match", name, v.Op))
			}
		case *ast.SwitchStmt:
			if v.Tag == nil {
				return true
			}
			for _, stmt := range v.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, expr := range cc.List {
					if name := sentinelName(f, expr); name != "" {
						out = append(out, f.finding("errwrap", expr.Pos(),
							"switch case on sentinel %s compares with ==; use errors.Is chains instead", name))
					}
				}
			}
		case *ast.CallExpr:
			if !f.isPkgFunc(v, "fmt", "Errorf") || len(v.Args) < 2 {
				return true
			}
			lit, ok := v.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || strings.Contains(lit.Value, "%w") {
				return true
			}
			for _, arg := range v.Args[1:] {
				if name := deepSentinelName(f, arg); name != "" {
					out = append(out, f.finding("errwrap", v.Pos(),
						"fmt.Errorf formats sentinel %s without %%w; errors.Is will not match the result", name))
					break
				}
			}
		}
		return true
	})
	return out
}

// sentinelName returns the rendered name when the expression resolves
// to a package-level variable whose type implements error — the typed
// definition of a sentinel — and "" otherwise. Locals, fields, and
// non-error variables never match.
func sentinelName(f *SrcFile, e ast.Expr) string {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	obj := f.obj(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return ""
	}
	if v.Parent() != v.Pkg().Scope() {
		return "" // not package-level: locals may alias freely
	}
	if !isErrorType(v.Type()) {
		return ""
	}
	return types.ExprString(ast.Unparen(e))
}

// deepSentinelName walks the expression for any embedded sentinel
// reference (covers arguments like ErrX or pkg.ErrX inside casts).
func deepSentinelName(f *SrcFile, e ast.Expr) string {
	name := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		if expr, ok := n.(ast.Expr); ok {
			if s := sentinelName(f, expr); s != "" {
				name = s
				return false
			}
		}
		return true
	})
	return name
}
