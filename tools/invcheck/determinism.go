package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerDeterminism guards the byte-identity contract: engine code
// must produce the same bytes on every run, across workers, shardings,
// transports, and WAL replays. Wall-clock reads, the global math/rand
// source, and map iteration order are the three ways nondeterminism has
// historically crept into mining engines, so all three are gated in the
// packages whose outputs are compared byte-for-byte. The serving tier,
// the sequence miners and the reference engines are in scope too:
// serve's views replay against from-scratch mines, seqmine is next onto
// the substrate, the reference engines' results and pass tables are
// pinned byte for byte to Apriori's, and the oracle's answers must replay
// as exactly as the packages they check.
//
// The typed pass resolves callees through go/types (renamed imports and
// wrapper aliases cannot hide a wall-clock read) and recognizes ranges
// over any map-typed expression — struct fields and cross-package maps
// included, which the syntactic pass could not see.
var analyzerDeterminism = &Analyzer{
	Name: "determinism",
	Packages: []string{
		"assoc", "reference", "fptree", "hashtree", "transactions", "dist", "wal", "serve", "seqmine", "oracle",
	},
	Run: runDeterminism,
}

// seededRandOK lists math/rand functions that construct seeded sources
// rather than draw from the process-global one.
var seededRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// runDeterminism reports time.Now/time.Since calls, global-source
// math/rand calls, and map-range loops that append to slices or write
// output without an intervening sort.
func runDeterminism(f *SrcFile) []Finding {
	var out []Finding
	ast.Inspect(f.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, fn := range []string{"Now", "Since"} {
			if f.isPkgFunc(call, "time", fn) {
				out = append(out, f.finding("determinism", call.Pos(),
					"time.%s in replayed engine code breaks byte-identity; inject a clock or measure outside the engine", fn))
			}
		}
		if name, ok := globalRandCall(f, call); ok {
			out = append(out, f.finding("determinism", call.Pos(),
				"rand.%s draws from the global source; use rand.New(rand.NewSource(seed)) so runs replay", name))
		}
		return true
	})
	funcBodies(f, func(fd *ast.FuncDecl) {
		out = append(out, checkMapRanges(f, fd)...)
	})
	return out
}

// globalRandCall reports whether call draws from math/rand's (or
// rand/v2's) process-global source: a package-level function of either
// package that is not one of the seeded constructors. Methods on
// seeded *rand.Rand values resolve to a receiver-carrying signature and
// never match.
func globalRandCall(f *SrcFile, call *ast.CallExpr) (string, bool) {
	fn, ok := f.calleeObj(call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "", false
	}
	if seededRandOK[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

// checkMapRanges flags range statements over map-typed expressions
// whose bodies append to a slice with no sort call anywhere in the
// enclosing function, or write directly to output. The map type comes
// from the checker, so fields (s.counts), call results, and
// cross-package maps are all in scope — not just locally-declared
// identifiers.
func checkMapRanges(f *SrcFile, fd *ast.FuncDecl) []Finding {
	hasSort := funcHasSortCall(fd)
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := f.typeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		label := types.ExprString(rs.X)
		appends, writes := false, false
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeName(call) {
			case "append":
				if !appendPerRangeKey(call, rs) {
					appends = true
				}
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln", "Write", "WriteString":
				writes = true
			}
			return true
		})
		if writes {
			out = append(out, f.finding("determinism", rs.Pos(),
				"map iteration order over %s reaches the output stream; collect and sort first", label))
		} else if appends && !hasSort {
			out = append(out, f.finding("determinism", rs.Pos(),
				"range over map %s appends to a slice with no sort in %s; iteration order leaks into results", label, fd.Name.Name))
		}
		return true
	})
	return out
}

// appendPerRangeKey reports whether the append's destination is an
// index expression keyed by the range statement's key variable
// (m2[k] = append(m2[k], …)): each key is visited exactly once, so the
// iteration order cannot leak into any single slice.
func appendPerRangeKey(call *ast.CallExpr, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || len(call.Args) == 0 {
		return false
	}
	idx, ok := call.Args[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := idx.Index.(*ast.Ident)
	return ok && id.Name == key.Name
}

// funcHasSortCall reports whether any call in fd's body resolves to a
// sort-ish callee (sort.Ints, slices.SortFunc, or a helper whose name
// contains "sort", like the engines' sortLevel) — the "intervening
// sort" that makes map-order appends deterministic again. Qualified
// calls are matched on the full pkg.Func name so sort.Ints counts.
func funcHasSortCall(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				name = id.Name + "." + sel.Sel.Name
			}
		}
		if strings.Contains(strings.ToLower(name), "sort") {
			found = true
			return false
		}
		return true
	})
	return found
}
