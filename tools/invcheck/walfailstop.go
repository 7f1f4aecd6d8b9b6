package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzerWALFailStop guards the durability contract of the write-ahead
// log: an op is acknowledged only after its record is written and (under
// SyncAlways) fsynced, and the first failed write latches the log into
// fail-stop. Both halves die silently if an error from a write-shaped
// call is dropped, shadowed, or checked only after the state it was
// supposed to gate has already advanced — the op is acked, the torn
// snapshot renamed into place, the old segments deleted.
//
// In the wal and serve packages, every call to a persist-shaped callee
// (a function returning error whose name contains write, sync, append,
// flush, snapshot, or persist) must have its error:
//   - captured — not discarded as a bare statement, defer, or go, and
//     not assigned to _;
//   - read — an error assigned to a variable that is never read before
//     the variable is reassigned or goes dead is swallowed (this is how
//     a shadowed err hides a failed fsync);
//   - checked in time — the first read must come before any subsequent
//     gated call (another persist, or a rename/apply/ack/commit that
//     advances state the error should have stopped).
//
// bytes.Buffer, strings.Builder, and http.ResponseWriter receivers are
// exempt: their Write errors are documented always-nil or are the
// response path itself.
//
// One class is caught only here: a dropped error from a sync that a later
// sync of the same file follows (a new segment's header Sync in
// wal.Log.createSegment). wal.MemFS lets the later sync cover the earlier
// bytes, so no crash test sees the loss that a real kernel can cause.
var analyzerWALFailStop = &Analyzer{
	Name:     "walfailstop",
	Packages: []string{"wal", "serve"},
	Run:      runWALFailStop,
}

// persistVerbs are the name fragments that mark a callee as
// persist-shaped.
var persistVerbs = []string{"write", "sync", "append", "flush", "snapshot", "persist"}

// gateVerbs extend persistVerbs with the state-advancing calls an
// unchecked error must not flow past: renames publish files, apply/ack/
// reply/commit acknowledge ops.
var gateVerbs = []string{"rename", "apply", "ack", "reply", "commit"}

// allGateVerbs is the union used by the intervening-call scan.
var allGateVerbs = append(append([]string{}, persistVerbs...), gateVerbs...)

// runWALFailStop checks every function body in the gated packages.
func runWALFailStop(f *SrcFile) []Finding {
	var out []Finding
	funcBodies(f, func(fd *ast.FuncDecl) {
		out = append(out, checkFailStop(f, fd)...)
	})
	return out
}

// errTrack records one persist error captured into a variable, for the
// read-before-gate analysis.
type errTrack struct {
	obj  types.Object
	pos  token.Pos // position of the persist call
	call string    // callee name, for messages
}

// checkFailStop applies the three fail-stop rules to one function body.
func checkFailStop(f *SrcFile, fd *ast.FuncDecl) []Finding {
	var out []Finding
	var tracked []errTrack
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				if name, ok := persistCallName(f, call); ok {
					out = append(out, f.finding("walfailstop", call.Pos(),
						"error from %s discarded; wal writes are fail-stop — the error must gate what happens next", name))
				}
			}
		case *ast.DeferStmt:
			if name, ok := persistCallName(f, st.Call); ok {
				out = append(out, f.finding("walfailstop", st.Call.Pos(),
					"error from deferred %s discarded; a deferred persist failure must still be observed (capture it into a named result)", name))
			}
		case *ast.GoStmt:
			if name, ok := persistCallName(f, st.Call); ok {
				out = append(out, f.finding("walfailstop", st.Call.Pos(),
					"error from %s discarded by go statement; persist errors cannot be checked across a goroutine boundary", name))
			}
		case *ast.AssignStmt:
			tracked = append(tracked, trackAssign(f, st, &out)...)
		}
		return true
	})
	if len(tracked) > 0 {
		reads, writes := identAccesses(f, fd)
		for _, t := range tracked {
			out = append(out, checkTracked(f, fd, t, reads[t.obj], writes[t.obj])...)
		}
	}
	return out
}

// trackAssign handles a persist call on the right-hand side of an
// assignment: error results assigned to _ are findings immediately;
// error results captured into identifiers are returned for the
// read-before-gate analysis; stores into fields escape and are assumed
// checked by whoever reads the field.
func trackAssign(f *SrcFile, st *ast.AssignStmt, out *[]Finding) []errTrack {
	if len(st.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	name, ok := persistCallName(f, call)
	if !ok {
		return nil
	}
	var tracked []errTrack
	for _, i := range errorResultIndexes(f, call) {
		if i >= len(st.Lhs) {
			break
		}
		id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		if id.Name == "_" {
			*out = append(*out, f.finding("walfailstop", id.Pos(),
				"error from %s assigned to _; wal writes are fail-stop — the error must be checked", name))
			continue
		}
		if obj := f.obj(id); obj != nil {
			tracked = append(tracked, errTrack{obj: obj, pos: call.Pos(), call: name})
		}
	}
	return tracked
}

// checkTracked applies the read-before-gate rules to one captured
// error: never read before its next overwrite means swallowed; first
// read after an intervening gated call means checked too late. Only an
// overwrite in the SAME statement block closes the read window — a
// write in a sibling branch (the other arm of a switch assigning the
// same err variable) is on a different execution path and proves
// nothing about this one.
func checkTracked(f *SrcFile, fd *ast.FuncDecl, t errTrack, reads, writes []token.Pos) []Finding {
	trackedBlock := blockOf(fd, t.pos)
	nextWrite := token.Pos(0)
	for _, wp := range writes {
		if wp > t.pos && blockOf(fd, wp) == trackedBlock {
			nextWrite = wp
			break
		}
	}
	firstRead := token.Pos(0)
	for _, rp := range reads {
		if rp > t.pos && (nextWrite == 0 || rp < nextWrite) {
			firstRead = rp
			break
		}
	}
	if firstRead == 0 {
		return []Finding{f.finding("walfailstop", t.pos,
			"error from %s assigned to %s but never read; a shadowed or overwritten error swallows a failed persist", t.call, t.obj.Name())}
	}
	if gname, ok := gatedCallBetween(f, fd, t.pos, firstRead); ok {
		return []Finding{f.finding("walfailstop", t.pos,
			"error from %s not checked before subsequent %s; the failure must stop the op before more state advances", t.call, gname)}
	}
	return nil
}

// blockOf returns the innermost statement list (block, case clause, or
// select clause) enclosing pos — the unit within which statements
// execute sequentially.
func blockOf(fd *ast.FuncDecl, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			if n.Pos() <= pos && pos < n.End() {
				if best == nil || (n.Pos() >= best.Pos() && n.End() <= best.End()) {
					best = n
				}
			}
		}
		return true
	})
	return best
}

// gatedCallBetween reports the first state-advancing call strictly
// between the two positions. Calls inside a switch/select clause that
// contains neither endpoint sit on a sibling execution path — the other
// arm of the branch — and never run between the capture and the read.
func gatedCallBetween(f *SrcFile, fd *ast.FuncDecl, from, to token.Pos) (string, bool) {
	name, found := "", false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= from || call.Pos() >= to {
			return true
		}
		if onSiblingBranch(fd, call.Pos(), from, to) {
			return true
		}
		cn := calleeName(call)
		if cn == "" {
			return true
		}
		lower := strings.ToLower(cn)
		for _, verb := range allGateVerbs {
			if strings.Contains(lower, verb) {
				name, found = cn, true
				return false
			}
		}
		return true
	})
	return name, found
}

// onSiblingBranch reports whether pos sits inside a switch or select
// clause that contains neither endpoint of the capture-to-read span.
func onSiblingBranch(fd *ast.FuncDecl, pos, from, to token.Pos) bool {
	sibling := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sibling {
			return false
		}
		switch n.(type) {
		case *ast.CaseClause, *ast.CommClause:
			if n.Pos() <= pos && pos < n.End() {
				containsFrom := n.Pos() <= from && from < n.End()
				containsTo := n.Pos() <= to && to < n.End()
				if !containsFrom && !containsTo {
					sibling = true
					return false
				}
			}
		}
		return true
	})
	return sibling
}

// persistCallName classifies a call as persist-shaped: a resolvable
// function or method returning at least one error whose name carries a
// persist verb, excluding the always-nil and response-path receivers.
func persistCallName(f *SrcFile, call *ast.CallExpr) (string, bool) {
	fn, ok := f.calleeObj(call).(*types.Func)
	if !ok {
		return "", false
	}
	lower := strings.ToLower(fn.Name())
	verb := false
	for _, v := range persistVerbs {
		if strings.Contains(lower, v) {
			verb = true
			break
		}
	}
	if !verb {
		return "", false
	}
	if len(errorResultIndexes(f, call)) == 0 {
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if exemptWriteReceiver(f.typeOf(sel.X)) {
			return "", false
		}
	}
	return fn.Name(), true
}

// errorResultIndexes returns the result positions of the call's callee
// signature whose type implements error.
func errorResultIndexes(f *SrcFile, call *ast.CallExpr) []int {
	t := f.typeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// exemptWriteReceiver reports whether the receiver type's writes are
// exempt from fail-stop: bytes.Buffer and strings.Builder document
// always-nil errors, and http.ResponseWriter IS the failure-reporting
// path.
func exemptWriteReceiver(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamedType(t, "bytes", "Buffer") ||
		isNamedType(t, "strings", "Builder") ||
		isNamedType(t, "net/http", "ResponseWriter")
}

// identAccesses indexes every read and write of each variable in fd's
// body, positions sorted ascending. Assignment left-hand sides count as
// writes (including :=); every other identifier use counts as a read.
func identAccesses(f *SrcFile, fd *ast.FuncDecl) (reads, writes map[types.Object][]token.Pos) {
	lhs := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, e := range st.Lhs {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					lhs[id] = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					lhs[id] = true
				}
			}
		}
		return true
	})
	reads = make(map[types.Object][]token.Pos)
	writes = make(map[types.Object][]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := f.obj(id)
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if lhs[id] {
			writes[obj] = append(writes[obj], id.Pos())
		} else {
			reads[obj] = append(reads[obj], id.Pos())
		}
		return true
	})
	for _, m := range []map[types.Object][]token.Pos{reads, writes} {
		for _, ps := range m {
			sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		}
	}
	return reads, writes
}
