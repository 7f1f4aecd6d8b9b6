package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerMergePure guards the merge-commutativity contract the whole
// distribution layer rests on: partial counts merged in ANY order must
// produce identical totals, because worker results arrive in retry- and
// failover-dependent order and WAL replay re-merges them from scratch.
// That only holds when Merge and *Into methods are pure accumulations —
// they fold the source into the destination and touch nothing else.
//
// Every function named Merge or ending in Into in the count-buffer
// packages is checked, transitively through same-package helpers:
//   - no reads of package-level mutable state (error sentinels and
//     constants are fine — their values never vary between replays);
//   - no stores to parameters other than the destination (the receiver,
//     plus pointer/slice/map parameters named dst, dest, buf, out, or
//     acc) — mutating the source would make merge order observable;
//   - no calls outside builtins, conversions, same-package helpers
//     (which are checked recursively), and the mergePureCallees
//     allowlist of vetted cross-package pure functions.
var analyzerMergePure = &Analyzer{
	Name:     "mergepure",
	Packages: []string{"assoc", "hashtree", "fptree", "dist"},
	RunPkg:   runMergePure,
}

// mergeDestNames are the parameter names that mark an explicit merge
// destination (alongside the receiver).
var mergeDestNames = map[string]bool{
	"dst": true, "dest": true, "buf": true, "out": true, "acc": true,
}

// mergePureCallees lists cross-package functions vetted as pure reads,
// keyed by types.Func.FullName. Additions need review: anything here
// runs inside every merge on every worker and every replay.
var mergePureCallees = map[string]bool{
	// Itemset membership probes: read-only scans over sorted item IDs.
	"(repro/internal/transactions.Itemset).ContainsAll": true,
	"(repro/internal/transactions.Itemset).Contains":    true,
	// Stable ordering helpers keep merged output canonical without
	// touching anything outside the slice being sorted.
	"sort.Ints":    true,
	"sort.Slice":   true,
	"sort.Strings": true,
	"sort.Search":  true,
}

// declSite pairs a function declaration with the file it lives in, so
// transitive checking reports findings against the right file.
type declSite struct {
	f  *SrcFile
	fd *ast.FuncDecl
}

// runMergePure finds the merge-shaped entry points of the package and
// checks each, chasing same-package helper calls across files. Each
// function body is analyzed at most once per package even when several
// merges share a helper.
func runMergePure(u *Unit) []Finding {
	decls := make(map[*types.Func]declSite)
	for _, f := range u.Files {
		funcBodies(f, func(fd *ast.FuncDecl) {
			if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = declSite{f: f, fd: fd}
			}
		})
	}
	visited := make(map[*types.Func]bool)
	var out []Finding
	for _, f := range u.Files {
		funcBodies(f, func(fd *ast.FuncDecl) {
			if !isMergeShaped(fd.Name.Name) {
				return
			}
			fn, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok || visited[fn] {
				return
			}
			out = append(out, checkMergeFrom(u, decls, visited, fn)...)
		})
	}
	return out
}

// isMergeShaped reports whether the function name marks a merge entry
// point: Merge itself or any *Into accumulator (MergeInto, countInto).
func isMergeShaped(name string) bool {
	return name == "Merge" || strings.HasSuffix(name, "Into")
}

// checkMergeFrom checks fn's body and, breadth-first, every
// same-package helper it calls that has not been checked yet.
func checkMergeFrom(u *Unit, decls map[*types.Func]declSite, visited map[*types.Func]bool, fn *types.Func) []Finding {
	var out []Finding
	queue := []*types.Func{fn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if visited[cur] {
			continue
		}
		visited[cur] = true
		site, ok := decls[cur]
		if !ok {
			continue // no body in this unit (e.g. declared via cgo/asm); call-site rule already flagged it
		}
		findings, callees := checkMergeBody(u, site)
		out = append(out, findings...)
		queue = append(queue, callees...)
	}
	return out
}

// checkMergeBody applies the purity rules to one function body and
// returns its findings plus the same-package callees to check next.
func checkMergeBody(u *Unit, site declSite) ([]Finding, []*types.Func) {
	f, fd := site.f, site.fd
	params := paramObjects(u, fd)
	dests := destObjects(u, fd)
	var out []Finding
	var callees []*types.Func
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if obj := storeRootObject(f, lhs); obj != nil && params[obj] && !dests[obj] {
					out = append(out, f.finding("mergepure", lhs.Pos(),
						"%s stores to parameter %s, which is not the merge destination; merges may only accumulate into the receiver or a dst/dest/buf/out/acc parameter", fd.Name.Name, obj.Name()))
				}
			}
		case *ast.IncDecStmt:
			if obj := storeRootObject(f, v.X); obj != nil && params[obj] && !dests[obj] {
				out = append(out, f.finding("mergepure", v.Pos(),
					"%s stores to parameter %s, which is not the merge destination; merges may only accumulate into the receiver or a dst/dest/buf/out/acc parameter", fd.Name.Name, obj.Name()))
			}
		case *ast.Ident:
			if obj, ok := u.Info.Uses[v].(*types.Var); ok && isGlobalMutable(obj) {
				out = append(out, f.finding("mergepure", v.Pos(),
					"%s touches package-level mutable state %s; merge results must not depend on anything but the two operands", fd.Name.Name, obj.Name()))
			}
		case *ast.CallExpr:
			fs, cs := checkMergeCall(u, f, fd, v)
			out = append(out, fs...)
			callees = append(callees, cs...)
		}
		return true
	})
	return out, callees
}

// checkMergeCall classifies one call inside a merge body: builtins and
// conversions pass, same-package functions are queued for transitive
// checking, and anything else must be on the allowlist.
func checkMergeCall(u *Unit, f *SrcFile, fd *ast.FuncDecl, call *ast.CallExpr) ([]Finding, []*types.Func) {
	if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil, nil // conversion
	}
	obj := f.calleeObj(call)
	switch o := obj.(type) {
	case *types.Builtin:
		return nil, nil
	case *types.TypeName:
		return nil, nil // conversion through a named type
	case *types.Func:
		if o.Pkg() != nil && o.Pkg() == u.Types {
			return nil, []*types.Func{o}
		}
		if mergePureCallees[o.FullName()] {
			return nil, nil
		}
		return []Finding{f.finding("mergepure", call.Pos(),
			"%s calls %s, which is not on the pure-helper allowlist; merges must stay side-effect-free on every worker and every replay", fd.Name.Name, o.FullName())}, nil
	default:
		return []Finding{f.finding("mergepure", call.Pos(),
			"%s calls through a function value (%s); purity cannot be established for an indirect callee", fd.Name.Name, types.ExprString(call.Fun))}, nil
	}
}

// paramObjects collects the objects of fd's declared parameters.
func paramObjects(u *Unit, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := u.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// destObjects collects the merge destinations: the receiver plus every
// pointer-, slice-, or map-typed parameter whose name declares it a
// destination.
func destObjects(u *Unit, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := u.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := u.Info.Defs[name]
			if obj == nil || !mergeDestNames[name.Name] {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map:
				out[obj] = true
			}
		}
	}
	return out
}

// storeRootObject resolves the base object being stored through: the
// identifier at the root of a chain of selectors, indexes, derefs, and
// slices. Stores to locals return their (local) object too; the caller
// decides which objects matter.
func storeRootObject(f *SrcFile, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return f.obj(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isGlobalMutable reports whether obj is a package-level variable whose
// value can change between runs or replays — anything but an
// error-typed sentinel (sentinels are write-once identity tokens).
func isGlobalMutable(obj *types.Var) bool {
	if obj.IsField() || obj.Pkg() == nil {
		return false
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return false
	}
	return !isErrorType(obj.Type())
}
