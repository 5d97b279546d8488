// Package inlinecheck pins compiler decisions the hot paths depend on. A
// short list of facts — a function the compiler inlines, a parameter that
// does not escape — is checked against what `go build -gcflags=-m=2`
// prints for the packages that hold them, so a change that costs one of
// them fails a test with the compiler's own message rather than a few
// percent of CPU that no gate sees.
//
// Today's list: (*index.Set).Add inlines, so the engine's insert calls its
// Resolver's Retain directly (devirtualized); the ids of
// Engine.DispatchIDs and Engine.FreeIDs do not escape, so a server session
// hands its decoded ID columns to the engine without allocating.
package inlinecheck

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strings"
)

// Pin is one compiler fact: in package Pkg (a path relative to the module
// root), either function Inline is inlined, or parameter Param of method
// Func does not escape.
type Pin struct {
	Pkg    string
	Inline string // as the compiler names it, e.g. "(*Set).Add"
	Func   string // a function or method name declared in Pkg
	Param  string
}

func (p Pin) String() string {
	if p.Inline != "" {
		return fmt.Sprintf("%s: %s inlines", p.Pkg, p.Inline)
	}
	return fmt.Sprintf("%s: %s's %s does not escape", p.Pkg, p.Func, p.Param)
}

// Pins is the committed list.
var Pins = []Pin{
	{Pkg: "internal/index", Inline: "(*Set).Add"},
	{Pkg: "internal/monitor", Func: "DispatchIDs", Param: "ids"},
	{Pkg: "internal/monitor", Func: "FreeIDs", Param: "ids"},
}

// Check builds the pinned packages of the module at root with -m=2 and
// returns one line per pin that does not hold: the pin, and what the
// compiler said instead.
func Check(root string, pins []Pin) ([]string, error) {
	var pkgs []string
	for _, p := range pins {
		pkgs = append(pkgs, "./"+p.Pkg)
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m=2"}, pkgs...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	diags := lines(out)
	var bad []string
	for _, p := range pins {
		got, ok, err := p.holds(root, diags)
		if err != nil {
			return nil, err
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("%v: the compiler says %s", p, got))
		}
	}
	return bad, nil
}

// holds reports whether p holds in the compiler's diagnostics, and the
// compiler's line about it.
func (p Pin) holds(root string, diags []line) (string, bool, error) {
	if p.Inline != "" {
		for _, l := range diags {
			if rest, ok := strings.CutPrefix(l.msg, "can inline "+p.Inline); ok && (rest == "" || rest[0] == ' ') && l.in(p.Pkg) {
				return l.msg, true, nil
			}
			if strings.HasPrefix(l.msg, "cannot inline "+p.Inline+":") && l.in(p.Pkg) {
				return l.msg, false, nil
			}
		}
		return "nothing", false, nil
	}
	pos, err := paramPos(root, p.Pkg, p.Func, p.Param)
	if err != nil {
		return "", false, err
	}
	for _, l := range diags {
		if l.pos == pos && strings.Contains(l.msg, p.Param) {
			return l.msg, l.msg == p.Param+" does not escape", nil
		}
	}
	return "nothing about " + pos, false, nil
}

// line is one diagnostic: its position (file:line:col, the file relative
// to the module root) and message.
type line struct{ pos, msg string }

func (l line) in(pkg string) bool { return strings.HasPrefix(l.pos, pkg+"/") }

func lines(out []byte) []line {
	var ls []line
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		t := sc.Text()
		// file:line:col: message
		i := strings.Index(t, ": ")
		if i < 0 || strings.Count(t[:i], ":") != 2 {
			continue
		}
		ls = append(ls, line{filepath.ToSlash(t[:i]), t[i+2:]})
	}
	return ls
}

// paramPos returns the position, as the compiler prints it, of parameter
// param of the function or method fn declared in package pkg.
func paramPos(root, pkg, fn, param string) (string, error) {
	files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
	if err != nil {
		return "", err
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return "", err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn {
				continue
			}
			for _, field := range fd.Type.Params.List {
				for _, n := range field.Names {
					if n.Name == param {
						p := fset.Position(n.Pos())
						return fmt.Sprintf("%s/%s:%d:%d", pkg, filepath.Base(name), p.Line, p.Column), nil
					}
				}
			}
		}
	}
	return "", fmt.Errorf("inlinecheck: no parameter %s of %s in %s", param, fn, pkg)
}
