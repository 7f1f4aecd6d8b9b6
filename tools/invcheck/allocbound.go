package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerAllocBound guards the raw-speed contract on the mining hot
// paths: the ROADMAP's named target is Partition's 76 MB / 1.4 M allocs
// per run, and every allocation inside a per-transaction or per-pass
// loop multiplies by the database size. Functions annotated with a
//
//	//invcheck:hotpath
//
// directive in their doc comment are held to an allocation discipline:
// the analyzer reports every allocation site the type checker can
// prove — composite literals (slice, map, and heap-escaping &T{}),
// appends whose destination provably lacks a preallocated capacity
// from make, non-constant string concatenation, interface boxing at
// call sites (a concrete value passed to an interface parameter), and
// closures capturing enclosing variables (the capture forces both the
// closure and the variable onto the heap). Deliberate allocations —
// amortized pool growth, one-time result assembly — carry per-site
// //lint:ignore invcheck/allocbound suppressions with the reason the
// allocation is acceptable.
var analyzerAllocBound = &Analyzer{
	Name: "allocbound",
	Run:  runAllocBound,
}

// hotpathDirective is the doc-comment annotation that opts a function
// into the allocation gate.
const hotpathDirective = "//invcheck:hotpath"

// isHotPath reports whether fd carries the hotpath directive in its doc
// comment group.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// runAllocBound checks every annotated function in the file.
func runAllocBound(f *SrcFile) []Finding {
	var out []Finding
	funcBodies(f, func(fd *ast.FuncDecl) {
		if !isHotPath(fd) {
			return
		}
		out = append(out, checkAllocSites(f, fd)...)
	})
	return out
}

// checkAllocSites walks one hotpath body and reports provable
// allocation sites.
func checkAllocSites(f *SrcFile, fd *ast.FuncDecl) []Finding {
	prealloc := preallocatedSlices(f, fd)
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if cl, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					out = append(out, f.finding("allocbound", v.Pos(),
						"hot path %s heap-allocates &%s; reuse a scratch value or pool", fd.Name.Name, litTypeName(f, cl)))
					return false // the inner literal is part of this site
				}
			}
		case *ast.CompositeLit:
			switch f.typeOf(v).Underlying().(type) {
			case *types.Slice:
				out = append(out, f.finding("allocbound", v.Pos(),
					"hot path %s allocates a slice literal %s; hoist it out of the loop or reuse scratch", fd.Name.Name, litTypeName(f, v)))
			case *types.Map:
				out = append(out, f.finding("allocbound", v.Pos(),
					"hot path %s allocates a map literal %s; hoist it out of the loop or reuse scratch", fd.Name.Name, litTypeName(f, v)))
			}
		case *ast.CallExpr:
			out = append(out, checkAllocCall(f, fd, v, prealloc)...)
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isNonConstantString(f, v) {
				out = append(out, f.finding("allocbound", v.Pos(),
					"hot path %s concatenates strings; build into a reused []byte or strings.Builder outside the loop", fd.Name.Name))
			}
		case *ast.FuncLit:
			if name, ok := capturesEnclosing(f, fd, v); ok {
				out = append(out, f.finding("allocbound", v.Pos(),
					"hot path %s creates a closure capturing %s by reference; the capture heap-allocates both — pass values explicitly or hoist the closure", fd.Name.Name, name))
			}
			return false // do not double-report the literal's own body
		}
		return true
	})
	return out
}

// checkAllocCall reports the call-shaped allocation classes: growing
// appends, make calls, and interface boxing of concrete arguments.
func checkAllocCall(f *SrcFile, fd *ast.FuncDecl, call *ast.CallExpr, prealloc map[types.Object]bool) []Finding {
	var out []Finding
	if name := calleeName(call); name == "append" && len(call.Args) > 0 {
		if _, isBuiltin := f.calleeObj(call).(*types.Builtin); isBuiltin {
			if !appendDestPreallocated(f, call.Args[0], prealloc) {
				out = append(out, f.finding("allocbound", call.Pos(),
					"hot path %s appends to %s without capacity provably preallocated by make; size it up front or reuse scratch", fd.Name.Name, types.ExprString(call.Args[0])))
			}
			return out
		}
	}
	out = append(out, checkBoxing(f, fd, call)...)
	return out
}

// litTypeName renders a composite literal's type for the finding
// message, falling back to the checker's view for untyped (nested)
// literals.
func litTypeName(f *SrcFile, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return types.ExprString(cl.Type)
	}
	if t := f.typeOf(cl); t != nil {
		return t.String()
	}
	return "composite literal"
}

// checkBoxing reports concrete values passed to interface parameters —
// the conversion boxes the value on the heap (fmt-style call sites are
// the classic leak). Conversions, nils, and already-interface arguments
// never box.
func checkBoxing(f *SrcFile, fd *ast.FuncDecl, call *ast.CallExpr) []Finding {
	tv, ok := f.Unit.Info.Types[call.Fun]
	if ok && tv.IsType() {
		return nil // conversion, not a call
	}
	sig := signatureOf(f, call)
	if sig == nil {
		return nil
	}
	var out []Finding
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := f.typeOf(arg)
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if atv, ok := f.Unit.Info.Types[arg]; ok && atv.IsNil() {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface: no box
		}
		if _, isSig := at.Underlying().(*types.Signature); isSig {
			continue // func values are already pointers
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointer-shaped: boxing is pointer-sized, no copy alloc
		}
		out = append(out, f.finding("allocbound", arg.Pos(),
			"hot path %s boxes %s (%s) into interface parameter; the conversion allocates per call", fd.Name.Name, types.ExprString(arg), at.String()))
	}
	return out
}

// signatureOf resolves the call's function signature, nil for builtins
// and unresolvable callees.
func signatureOf(f *SrcFile, call *ast.CallExpr) *types.Signature {
	t := f.typeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// paramTypeAt returns the declared parameter type for argument i,
// unrolling variadic tails. An argument spread with ... keeps the slice
// type and never boxes element-wise.
func paramTypeAt(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	params := sig.Params()
	if sig.Variadic() {
		last := params.Len() - 1
		if i >= last {
			if call.Ellipsis.IsValid() {
				return nil // passed as a whole slice
			}
			sl, ok := params.At(last).Type().(*types.Slice)
			if !ok {
				return nil
			}
			return sl.Elem()
		}
		return params.At(i).Type()
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// preallocatedSlices collects the objects in fd provably created by a
// make with an explicit capacity argument (make([]T, n, cap)) — the
// only local shape under which append is guaranteed allocation-free up
// to the reserved capacity.
func preallocatedSlices(f *SrcFile, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || calleeName(call) != "make" || len(call.Args) != 3 {
				continue
			}
			if obj := f.obj(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// appendDestPreallocated reports whether the append destination is an
// identifier whose object was created by a capacity-carrying make in
// this function.
func appendDestPreallocated(f *SrcFile, dest ast.Expr, prealloc map[types.Object]bool) bool {
	id, ok := ast.Unparen(dest).(*ast.Ident)
	if !ok {
		return false
	}
	obj := f.obj(id)
	return obj != nil && prealloc[obj]
}

// isNonConstantString reports whether the binary + has static type
// string and is not folded at compile time.
func isNonConstantString(f *SrcFile, b *ast.BinaryExpr) bool {
	tv, ok := f.Unit.Info.Types[b]
	if !ok || tv.Value != nil {
		return false // untracked or constant-folded
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// capturesEnclosing reports whether the function literal references a
// variable declared in the enclosing function — a by-reference capture
// that forces the variable (and the closure) onto the heap.
func capturesEnclosing(f *SrcFile, fd *ast.FuncDecl, lit *ast.FuncLit) (string, bool) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := f.Unit.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || obj.Pkg() == nil {
			return true
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return true // package-level: no capture
		}
		// Declared outside the literal but inside the enclosing decl.
		if obj.Pos() < lit.Pos() && obj.Pos() >= fd.Pos() {
			captured = obj.Name()
			return false
		}
		return true
	})
	return captured, captured != ""
}
