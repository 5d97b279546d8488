package handlecheck

import (
	"strings"
	"testing"
)

// want is one expected finding: its line and a fragment of its message.
type want struct {
	line   int
	substr string
}

// expectFindings checks one fixture's findings against the expected list,
// in source order.
func expectFindings(t *testing.T, fixture string, expected []want) {
	t.Helper()
	findings, err := CheckFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != len(expected) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(expected), render(findings))
	}
	for i, w := range expected {
		if f := findings[i]; f.Pos.Line != w.line || !strings.Contains(f.What, w.substr) {
			t.Errorf("finding %d = %s, want line %d containing %q", i, f, w.line, w.substr)
		}
	}
}

// TestCatchesPlantedEscapes parses the planted-escape fixture and
// requires every store form to be found: struct field, package var,
// named container type, channel element, local struct.
func TestCatchesPlantedEscapes(t *testing.T) {
	expectFindings(t, "testdata/bad.go", []want{
		{10, "struct field"},
		{15, "package-level var"},
		{18, "named type"},
		{22, "struct field"},
		{28, "struct field"},
	})
}

// TestCatchesAliasedImport: the escape hides behind an import alias.
func TestCatchesAliasedImport(t *testing.T) {
	findings, err := CheckFile("testdata/bad_alias.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(findings), render(findings))
	}
	if !strings.Contains(findings[0].What, "struct field retains *store.Mon") {
		t.Errorf("finding = %s, want the aliased package name in the message", findings[0])
	}
}

// TestCatchesInstancePointers: a pointer to param.Instance in a struct
// field, a map key, a package var or a named container — behind an import
// alias — is found; by-value instances in the same file are not.
func TestCatchesInstancePointers(t *testing.T) {
	expectFindings(t, "testdata/bad_instance.go", []want{
		{11, "struct field retains *inst.Instance"},
		{17, "struct field retains *inst.Instance"},
		{18, "struct field retains *inst.Instance"},
		{23, "package-level var retains *inst.Instance"},
		{26, "named type retains *inst.Instance"},
	})
}

// TestCatchesBindingPointers: a pointer to param.Binding in a struct
// field, a map key or value, a package var, a named container, a channel,
// a local struct or a nested anonymous struct is found.
func TestCatchesBindingPointers(t *testing.T) {
	expectFindings(t, "testdata/bad_binding.go", []want{
		{10, "struct field retains *param.Binding"},
		{16, "struct field retains *param.Binding"},
		{17, "struct field retains *param.Binding"},
		{21, "package-level var retains *param.Binding"},
		{24, "named type retains *param.Binding"},
		{28, "struct field retains *param.Binding"},
		{34, "struct field retains *param.Binding"},
		{42, "struct field retains *param.Binding"},
	})
}

// TestCatchesInstancePointersInParam: inside package param the types are
// the bare identifiers, and the rule holds there too.
func TestCatchesInstancePointersInParam(t *testing.T) {
	expectFindings(t, "testdata/bad_param.go", []want{
		{9, "struct field retains *Instance"},
		{16, "struct field retains *Binding"},
	})
}

// TestPermitsTransientUses: parameters, results, locals, func-typed
// fields, unrelated Mon selectors and by-value instances produce no
// findings.
func TestPermitsTransientUses(t *testing.T) {
	findings, err := CheckFile("testdata/good.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("got %d findings on the permitted-use fixture:\n%s", len(findings), render(findings))
	}
}

// TestRepositoryClean runs the linter over the whole repository: no
// package outside internal/monitor may retain a *monitor.Mon, and no
// package at all a *param.Instance or a *param.Binding. CI runs this in
// the lint job.
func TestRepositoryClean(t *testing.T) {
	findings, err := CheckDir("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("arena-handle discipline violation: %s", f)
	}
}

func render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
