package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerAtomicPublish guards the snapshot-consistency contract of the
// serving tier: readers are lock-free because every query dereferences
// the atomic.Pointer-published View exactly once, and the never-stale
// cache keys on the View's version. That only stays auditable while
// the pointer is swapped in one designated place — a store scattered
// into an arbitrary code path can publish a View whose version, ops
// stamp, and cache interaction were never reasoned about. In
// internal/serve, atomic.Pointer stores are therefore confined to
// publish helpers (functions whose name contains "publish").
//
// The typed pass matches sync/atomic.Pointer[T] by type identity: the
// receiver of every .Store call is resolved through go/types, so
// stores through locals, embedded structs, aliases, and fields declared
// in other files are all gated — the syntactic pass only saw fields
// declared in the same file as the store.
var analyzerAtomicPublish = &Analyzer{
	Name:     "atomicpublish",
	Packages: []string{"serve"},
	Run:      runAtomicPublish,
}

// runAtomicPublish reports .Store calls whose receiver's type is
// sync/atomic.Pointer[T] outside functions whose name contains
// "publish".
func runAtomicPublish(f *SrcFile) []Finding {
	var out []Finding
	funcBodies(f, func(fd *ast.FuncDecl) {
		if strings.Contains(strings.ToLower(fd.Name.Name), "publish") {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Store" {
				return true
			}
			if !isAtomicPointer(f.typeOf(sel.X)) {
				return true
			}
			out = append(out, f.finding("atomicpublish", call.Pos(),
				"atomic.Pointer field %s stored outside a publish helper (in %s); route the swap through publish so version/ops stamping stays centralized", storeTargetName(sel.X), fd.Name.Name))
			return true
		})
	})
	return out
}

// isAtomicPointer reports whether t (possibly behind a pointer or
// alias) is the generic sync/atomic.Pointer type.
func isAtomicPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamedType(t, "sync/atomic", "Pointer")
}

// storeTargetName names the stored-to value for the finding message:
// the terminal field or variable name.
func storeTargetName(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.StarExpr:
		return storeTargetName(v.X)
	}
	return types.ExprString(e)
}
