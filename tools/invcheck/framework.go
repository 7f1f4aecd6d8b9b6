package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Finding is one invariant violation at a source position.
type Finding struct {
	File     string
	Line     int
	Analyzer string
	Message  string
}

// String renders the finding in the file:line: [analyzer] message form
// that CI consumers and editors parse.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one registered invariant check. Exactly one of Run and
// RunPkg is set: Run is invoked once per type-checked non-test file
// whose package name matches Packages (nil means every package), RunPkg
// once per type-checked package unit — for checks like doc coverage
// that look across the files of a package.
type Analyzer struct {
	Name     string
	Packages []string
	Run      func(f *SrcFile) []Finding
	RunPkg   func(u *Unit) []Finding
}

// appliesTo reports whether the analyzer gates the named package.
func (a *Analyzer) appliesTo(pkg string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == pkg {
			return true
		}
	}
	return false
}

// Unit is one type-checked package: every non-test file of one package
// clause in one directory, plus the shared go/types facts. This is what
// makes the checker type-aware — analyzers resolve objects, types, and
// selections instead of matching names, so aliases, renamed imports,
// and cross-file declarations cannot slip past them.
type Unit struct {
	Dir   string
	Pkg   string // package clause name (analyzer scoping key)
	Files []*SrcFile
	Info  *types.Info
}

// SrcFile is one parsed, type-checked source file handed to analyzers.
type SrcFile struct {
	Fset *token.FileSet
	File *ast.File
	Path string
	Pkg  string
	Unit *Unit
}

// position resolves an AST position against the file set.
func (f *SrcFile) position(pos token.Pos) token.Position {
	return f.Fset.Position(pos)
}

// finding builds a Finding for the analyzer at the given position.
func (f *SrcFile) finding(name string, pos token.Pos, format string, args ...any) Finding {
	p := f.position(pos)
	return Finding{File: p.Filename, Line: p.Line, Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// typeOf returns the static type of e, nil when the checker recorded
// none (which for a fully type-checked unit only happens for non-value
// expressions).
func (f *SrcFile) typeOf(e ast.Expr) types.Type {
	return f.Unit.Info.TypeOf(e)
}

// obj resolves an identifier to the object it uses or defines.
func (f *SrcFile) obj(id *ast.Ident) types.Object {
	if o := f.Unit.Info.Uses[id]; o != nil {
		return o
	}
	return f.Unit.Info.Defs[id]
}

// calleeObj resolves a call's callee to its object: the function or
// method for pkg.F / recv.M / plain F calls, nil for indirect calls
// through function values and for conversions.
func (f *SrcFile) calleeObj(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.obj(fn)
	case *ast.SelectorExpr:
		return f.obj(fn.Sel)
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := fn.X.(*ast.Ident); ok {
			return f.obj(id)
		}
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name, resolved through the type checker — renamed imports and
// aliases are seen through, method calls never match.
func (f *SrcFile) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	obj := f.calleeObj(call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// errorIface is the universe error interface, the target for sentinel
// detection.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements (or is) error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// isNamedType reports whether t (through aliases) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// registry lists every analyzer in the order the README's table lists
// them; a run applies all of them.
var registry = []*Analyzer{
	analyzerDeterminism,
	analyzerCtxDiscipline,
	analyzerErrWrap,
	analyzerGoroutines,
	analyzerAtomicPublish,
	analyzerAllocBound,
	analyzerWALFailStop,
	analyzerDocComment,
}

// frameworkError is a parse or type-check failure: the tree cannot be
// analyzed, which must abort the run with exit 2 — silently skipping an
// unparseable file would let violations through unreported. Each line
// renders as file:line: [framework] message.
type frameworkError struct {
	diags []string
}

// Error joins the diagnostics one per line.
func (e *frameworkError) Error() string { return strings.Join(e.diags, "\n") }

// loader owns the shared file set, the stdlib source importer, and the
// per-module importers, so repeated checkTree calls (tests, multiple
// roots) pay the standard-library type-check once per process.
type loader struct {
	mu      sync.Mutex
	fset    *token.FileSet
	std     types.ImporterFrom
	mods    map[string]*moduleImporter // module root dir -> importer
	modMemo map[string]moduleRef       // package dir -> module
}

// moduleRef locates the module a directory belongs to.
type moduleRef struct {
	root string // directory holding go.mod ("" when none)
	path string // module path from go.mod
}

// sharedLoader is the process-wide loader. Cgo is disabled on the build
// context before the source importer is created so cgo-using standard
// library packages (net, os/user) type-check from their pure-Go
// fallbacks instead of invoking the cgo tool.
var sharedLoader = func() *loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		mods:    make(map[string]*moduleImporter),
		modMemo: make(map[string]moduleRef),
	}
}()

// moduleImporter resolves import paths inside one module from source
// (with function bodies skipped) and delegates everything else to the
// shared standard-library importer. It implements types.ImporterFrom.
type moduleImporter struct {
	ld      *loader
	ref     moduleRef
	pkgs    map[string]*types.Package
	loading map[string]bool
}

// Import implements types.Importer.
func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

// ImportFrom resolves module-local paths against the module root and
// everything else (the standard library) through the source importer.
func (im *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if im.ref.path != "" && (path == im.ref.path || strings.HasPrefix(path, im.ref.path+"/")) {
		if p, ok := im.pkgs[path]; ok {
			return p, nil
		}
		if im.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		im.loading[path] = true
		defer delete(im.loading, path)
		sub := strings.TrimPrefix(strings.TrimPrefix(path, im.ref.path), "/")
		pkg, err := im.loadLocal(path, filepath.Join(im.ref.root, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		im.pkgs[path] = pkg
		return pkg, nil
	}
	return im.ld.std.ImportFrom(path, dir, mode)
}

// loadLocal type-checks one module-local package from source, bodies
// skipped — imported packages only contribute their exported shape.
func (im *moduleImporter) loadLocal(path, dir string) (*types.Package, error) {
	names, err := listGoFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(im.ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im, IgnoreFuncBodies: true, FakeImportC: true}
	return conf.Check(path, im.ld.fset, files, nil)
}

// listGoFiles returns the analyzable Go file names in dir: non-test .go
// files whose build constraints are satisfied by the default context
// (so a //go:build ignore'd generator script never poisons its
// package's type check).
func listGoFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// moduleFor finds the module containing dir by walking up to the
// nearest go.mod, memoized per directory. A tree outside any module
// (fixture temp dirs) gets an empty ref: only standard-library imports
// resolve there.
func (ld *loader) moduleFor(dir string) moduleRef {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return moduleRef{}
	}
	if ref, ok := ld.modMemo[abs]; ok {
		return ref
	}
	ref := moduleRef{}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			if path := parseModulePath(data); path != "" {
				ref = moduleRef{root: d, path: path}
			}
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	ld.modMemo[abs] = ref
	return ref
}

// parseModulePath extracts the module path from go.mod contents.
func parseModulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// importerFor returns the module importer for dir's module, shared
// across packages of the same module.
func (ld *loader) importerFor(dir string) *moduleImporter {
	ref := ld.moduleFor(dir)
	key := ref.root // "" groups every outside-module tree together
	im, ok := ld.mods[key]
	if !ok {
		im = &moduleImporter{ld: ld, ref: ref, pkgs: make(map[string]*types.Package), loading: make(map[string]bool)}
		ld.mods[key] = im
	}
	return im
}

// walkDirs lists root and every directory below it that the gate
// covers: testdata, vendor and dot-directories are exempt, but only
// below root, so a root of "." is itself walked. Directory symlinks are
// not followed.
func walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	return dirs, err
}

// loadUnits parses and type-checks every package under root: one Unit
// per (directory, package clause) pair. Parse and type errors abort
// with a frameworkError — a file that fails to parse or type-check is
// never silently skipped.
func (ld *loader) loadUnits(root string) ([]*Unit, error) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	dirs, err := walkDirs(root)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// loadDir parses the directory's analyzable files, groups them by
// package clause (so a stray main-package tool next to a library does
// not break the library's type check), and type-checks each group with
// full bodies and a populated types.Info.
func (ld *loader) loadDir(dir string) ([]*Unit, error) {
	names, err := listGoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil // empty package: nothing to analyze
	}
	byPkg := make(map[string][]*SrcFile)
	var order []string
	var ferr frameworkError
	for _, name := range names {
		path := filepath.Join(dir, name)
		file, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			ferr.diags = append(ferr.diags, frameworkDiag(err))
			continue
		}
		pkg := file.Name.Name
		if _, ok := byPkg[pkg]; !ok {
			order = append(order, pkg)
		}
		byPkg[pkg] = append(byPkg[pkg], &SrcFile{Fset: ld.fset, File: file, Path: path, Pkg: pkg})
	}
	if len(ferr.diags) > 0 {
		return nil, &ferr
	}
	im := ld.importerFor(dir)
	var units []*Unit
	for _, pkg := range order {
		files := byPkg[pkg]
		asts := make([]*ast.File, len(files))
		for i, f := range files {
			asts[i] = f.File
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		var terrs []error
		conf := types.Config{
			Importer:    im,
			FakeImportC: true,
			Error:       func(err error) { terrs = append(terrs, err) },
		}
		conf.Check(unitImportPath(im.ref, dir, pkg), ld.fset, asts, info) // errors arrive through conf.Error
		if len(terrs) > 0 {
			for _, te := range terrs {
				ferr.diags = append(ferr.diags, frameworkDiag(te))
			}
			return nil, &ferr
		}
		unit := &Unit{Dir: dir, Pkg: pkg, Files: files, Info: info}
		for _, f := range files {
			f.Unit = unit
		}
		units = append(units, unit)
	}
	return units, nil
}

// unitImportPath names the package being checked: its module-based
// import path when the directory is inside a module, a synthetic
// path otherwise (fixture trees — the name only matters for error
// messages and self-import detection).
func unitImportPath(ref moduleRef, dir, pkg string) string {
	if ref.path != "" {
		if abs, err := filepath.Abs(dir); err == nil {
			if rel, err := filepath.Rel(ref.root, abs); err == nil && !strings.HasPrefix(rel, "..") {
				if rel == "." {
					return ref.path
				}
				return ref.path + "/" + filepath.ToSlash(rel)
			}
		}
	}
	return "invcheck.fixture/" + pkg
}

// frameworkDiag renders a parse or type error as a [framework]
// diagnostic line. go/parser and go/types errors already lead with
// file:line:col.
func frameworkDiag(err error) string {
	return fmt.Sprintf("[framework] %s", err.Error())
}

// checkTree type-checks every package under root and runs the given
// analyzers over it, honoring the walk's exemptions and the inline
// suppression directives.
func checkTree(root string, analyzers []*Analyzer) ([]Finding, error) {
	units, err := sharedLoader.loadUnits(root)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, u := range units {
		findings = append(findings, checkUnit(u, analyzers)...)
	}
	return findings, nil
}

// checkUnit runs the given analyzers over one package unit and applies
// each file's suppression directives to the findings that landed in it.
func checkUnit(u *Unit, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		if !a.appliesTo(u.Pkg) {
			continue
		}
		if a.RunPkg != nil {
			raw = append(raw, a.RunPkg(u)...)
		}
		if a.Run != nil {
			for _, f := range u.Files {
				raw = append(raw, a.Run(f)...)
			}
		}
	}
	byFile := make(map[string][]Finding)
	for _, fd := range raw {
		byFile[fd.File] = append(byFile[fd.File], fd)
	}
	var out []Finding
	for _, f := range u.Files {
		out = append(out, applySuppressions(f, byFile[f.Path])...)
	}
	return out
}

// suppression is one parsed //lint:ignore invcheck/<name> reason
// directive.
type suppression struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Pos
}

// parseSuppressions extracts every invcheck ignore directive from the
// file's comments, keyed by the source line the comment sits on.
func parseSuppressions(f *SrcFile) []suppression {
	var out []suppression
	for _, cg := range f.File.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore ") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore "))
			target, reason, _ := strings.Cut(rest, " ")
			if !strings.HasPrefix(target, "invcheck/") {
				continue // other linters' directives are not ours to police
			}
			out = append(out, suppression{
				analyzer: strings.TrimPrefix(target, "invcheck/"),
				reason:   strings.TrimSpace(reason),
				file:     f.Path,
				line:     f.position(c.Pos()).Line,
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// applySuppressions filters findings covered by a reasoned directive on
// the same line or the line above, and appends [suppress] findings for
// malformed directives: a missing reason or an unknown analyzer name is
// itself a violation, so suppressions stay auditable.
func applySuppressions(f *SrcFile, raw []Finding) []Finding {
	sups := parseSuppressions(f)
	known := make(map[string]bool, len(registry))
	for _, a := range registry {
		known[a.Name] = true
	}
	var out []Finding
	for _, s := range sups {
		if !known[s.analyzer] {
			out = append(out, f.finding("suppress", s.pos,
				"suppression names unknown analyzer %q (have %s)", s.analyzer, registryNames()))
			continue
		}
		if s.reason == "" {
			out = append(out, f.finding("suppress", s.pos,
				"suppression for invcheck/%s is missing a reason", s.analyzer))
		}
	}
	for _, fd := range raw {
		suppressed := false
		for _, s := range sups {
			if s.analyzer == fd.Analyzer && s.reason != "" && (s.line == fd.Line || s.line == fd.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, fd)
		}
	}
	return out
}

// collectSuppressions parses (without type-checking) every file the
// gate would load under root — the same directories and the same
// build-constrained file lists — and returns its suppression
// directives, so the directive inventory stays reviewable even while
// the tree is mid-refactor.
func collectSuppressions(root string) ([]suppression, error) {
	dirs, err := walkDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []suppression
	for _, dir := range dirs {
		names, err := listGoFiles(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, &frameworkError{diags: []string{frameworkDiag(err)}}
			}
			out = append(out, parseSuppressions(&SrcFile{Fset: fset, File: file, Path: path})...)
		}
	}
	return out, nil
}

// calleeName returns the terminal name of a call's callee: the selector
// field for pkg.F or recv.M calls, the identifier for plain calls, ""
// otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// funcBodies yields every function declaration and its body in the
// file, including methods; bodies of function literals are visited as
// part of their enclosing declaration.
func funcBodies(f *SrcFile, visit func(decl *ast.FuncDecl)) {
	for _, decl := range f.File.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd)
		}
	}
}
