package main

import (
	"go/ast"
	"go/types"
)

// analyzerDocComment is the documentation gate: every package carries a
// package doc comment in at least one of its files, and every exported
// top-level identifier — type, function, method on an exported type,
// const or var — carries a doc comment. A doc comment on a const, var
// or type block covers the whole block, and an end-of-line comment
// documents a value spec. Test files are exempt, as everywhere in the
// walk.
var analyzerDocComment = &Analyzer{
	Name:   "doccomment",
	RunPkg: runDocComment,
}

// runDocComment reports the package doc and every undocumented exported
// declaration of one unit. Method receivers resolve through the type
// checker, so a generic receiver of any arity is seen through.
func runDocComment(u *Unit) []Finding {
	var out []Finding
	hasDoc := false
	for _, f := range u.Files {
		hasDoc = hasDoc || f.File.Doc != nil
		for _, decl := range f.File.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if d.Recv == nil {
					out = append(out, f.finding("doccomment", d.Pos(), "exported function %s has no doc comment", d.Name.Name))
				} else if recv := receiverType(f.obj(d.Name)); recv != nil && recv.Exported() {
					out = append(out, f.finding("doccomment", d.Pos(), "exported method %s.%s has no doc comment", recv.Name(), d.Name.Name))
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil {
							out = append(out, f.finding("doccomment", s.Pos(), "exported type %s has no doc comment", s.Name.Name))
						}
					case *ast.ValueSpec:
						if s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() {
								out = append(out, f.finding("doccomment", s.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name))
								break
							}
						}
					}
				}
			}
		}
	}
	if !hasDoc {
		first := u.Files[0]
		out = append(out, Finding{File: first.Path, Line: 1, Analyzer: "doccomment",
			Message: "package in " + u.Dir + " has no package doc comment"})
	}
	return out
}

// receiverType returns the named type a method is declared on, nil when
// the object is not a method.
func receiverType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
