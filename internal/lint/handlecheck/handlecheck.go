// Package handlecheck enforces the arena-handle discipline of the engine's
// slab stores (DESIGN.md "The arena store"): what a store keeps about a
// pooled record is its generation-tagged handle, never a pointer into the
// slab. Two kinds of view are policed:
//
//   - *monitor.Mon: a transient view resolved from a monitor handle, valid
//     for one engine operation. The type monitor.Mon (or *monitor.Mon, or
//     any container over it) may not appear in a store outside
//     internal/monitor.
//   - *param.Instance: a pointer to a parameter instance. Instances travel
//     by value everywhere (events, verdicts, Monitors()); the only
//     addressable ones live in θ-table slots (param.Interner), so a retained
//     pointer is a retained slab view — it would dangle the moment the slot
//     recycles, and as a map key it would be a second identity for θ next
//     to the slot handle. A *pointer* to param.Instance (or any container
//     over one, map keys included) may not appear in a store in any
//     package, internal/monitor and internal/param included — the table
//     itself holds its instances by value. By-value param.Instance is legal
//     everywhere.
//
// Generation-tagged handles exist precisely so stale references are caught
// — but only handles carry generations, raw pointers do not.
//
// The linter is a syntactic pass over the repository's Go sources using
// only the standard library (go/parser + go/ast): for every file it
// resolves the file's import aliases of rvgo/internal/monitor and
// rvgo/internal/param (inside package param the bare name Instance) and
// flags the types above appearing in
//
//   - a struct field type,
//   - a package-level var declaration,
//   - a named type declaration (type X map[K]*monitor.Mon),
//
// all of which are stores. Function parameters, results and local
// variables are not flagged: passing a view down a call stack within one
// operation is exactly what the transient contract permits. Types inside
// func types are likewise exempt (a closure type mentions Mon without
// storing one).
package handlecheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// monitorPath and paramPath are the packages whose pooled records the
// discipline protects.
const (
	monitorPath = "rvgo/internal/monitor"
	paramPath   = "rvgo/internal/param"
)

// Finding is one discipline violation.
type Finding struct {
	Pos  token.Position
	What string // which store retained the handle
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.What)
}

// CheckDir walks root recursively and checks every Go file. Directories
// named testdata, vendor or starting with "." or "_" are skipped (fixtures
// are checked by CheckFile directly).
func CheckDir(root string) ([]Finding, error) {
	var findings []Finding
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fs, err := CheckFile(path)
		if err != nil {
			return err
		}
		findings = append(findings, fs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

// CheckFile parses one Go file and returns its violations.
func CheckFile(path string) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return checkAST(fset, f), nil
}

// importName returns the identifier the file refers to the package at
// path by ("" if the file does not import it). A dot- or blank-import
// yields "" too: dot imports would need type information to resolve, and
// the repository style forbids them anyway.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if n := imp.Name.Name; n != "." && n != "_" {
				return n
			}
			return ""
		}
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	return ""
}

// names is how one file spells the policed types: the qualifier of
// monitor.Mon ("" = not imported; files of package monitor itself never
// match, which is the exemption the store's own package gets), and the
// qualifier of param.Instance (inParam: the bare identifier).
type names struct {
	mon, par string
	inParam  bool
}

func checkAST(fset *token.FileSet, f *ast.File) []Finding {
	n := names{mon: importName(f, monitorPath), par: importName(f, paramPath), inParam: f.Name.Name == "param" || f.Name.Name == "param_test"}
	if n.mon == "" && n.par == "" && !n.inParam {
		return nil
	}
	var findings []Finding
	report := func(pos token.Pos, store string, t ast.Expr) {
		what := n.retained(t)
		if what == "" {
			return
		}
		findings = append(findings, Finding{Pos: fset.Position(pos),
			What: fmt.Sprintf("%s retains %s — store the arena handle instead", store, what)})
	}

	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			// Function bodies may contain local struct/var declarations;
			// struct types declared anywhere are stores, package-level
			// vars are handled below, locals are transient.
			if fd, isFn := decl.(*ast.FuncDecl); isFn && fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						checkStruct(st, report)
					}
					return true
				})
			}
			continue
		}
		switch gd.Tok {
		case token.VAR:
			for _, s := range gd.Specs {
				if vs := s.(*ast.ValueSpec); vs.Type != nil {
					report(vs.Pos(), "package-level var", vs.Type)
				}
			}
		case token.TYPE:
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				if st, ok := ts.Type.(*ast.StructType); ok {
					checkStruct(st, report)
					continue
				}
				report(ts.Pos(), "named type", ts.Type)
			}
		}
	}
	return findings
}

func checkStruct(st *ast.StructType, report func(token.Pos, string, ast.Expr)) {
	for _, field := range st.Fields.List {
		report(field.Pos(), "struct field", field.Type)
		// Nested anonymous structs are their own stores.
		if inner, ok := deref(field.Type).(*ast.StructType); ok {
			checkStruct(inner, report)
		}
	}
}

func deref(t ast.Expr) ast.Expr {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		default:
			return t
		}
	}
}

// retained names the pooled-record view that storing a value of type t
// retains ("" if none): a monitor.Mon — the selector itself, a pointer to
// it, or any array, slice, map or channel over such a type — or a pointer
// to a param.Instance under the same containers. Function types are not
// stores (their values capture nothing by type alone), and nested struct
// types are handled by checkStruct so each field gets its own finding.
func (n names) retained(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && n.mon != "" && id.Name == n.mon && x.Sel.Name == "Mon" {
			return "*" + n.mon + ".Mon"
		}
	case *ast.StarExpr:
		switch p := deref(x).(type) {
		case *ast.SelectorExpr:
			if id, ok := p.X.(*ast.Ident); ok && n.par != "" && id.Name == n.par && p.Sel.Name == "Instance" {
				return "*" + n.par + ".Instance"
			}
		case *ast.Ident:
			if n.inParam && p.Name == "Instance" {
				return "*Instance"
			}
		}
		return n.retained(x.X)
	case *ast.ParenExpr:
		return n.retained(x.X)
	case *ast.ArrayType:
		return n.retained(x.Elt)
	case *ast.MapType:
		if what := n.retained(x.Key); what != "" {
			return what
		}
		return n.retained(x.Value)
	case *ast.ChanType:
		return n.retained(x.Value)
	case *ast.Ellipsis:
		return n.retained(x.Elt)
	}
	return ""
}
