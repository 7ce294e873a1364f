package highway_test

import (
	"bytes"
	"flag"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

// updateAPI regenerates the golden surface file instead of comparing:
//
//	go test -run TestAPISurface -update-api ./
var updateAPI = flag.Bool("update-api", false, "rewrite api.txt with the current public surface")

// TestAPISurface pins the package's exported API — every const, var,
// type (with its exported methods and constructors) and function — as
// rendered declarations in api.txt. An unintended signature change,
// removal, or accidental export fails here before it reaches a user;
// deliberate changes regenerate the file with -update-api and show up
// in review as a readable api.txt diff. CI runs it in its own job
// (alongside go vet over examples/) so deprecated-shim breakage is
// caught even when unit tests still pass.
func TestAPISurface(t *testing.T) {
	got := renderAPISurface(t)
	const golden = "api.txt"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-api): %v", err)
	}
	want := string(wantBytes)
	if got != want {
		t.Fatalf("public API surface changed.\nIf intended, regenerate with:\n\tgo test -run TestAPISurface -update-api ./\n%s",
			surfaceDiff(want, got))
	}
}

// renderAPISurface parses the root package and renders every exported
// declaration, comment-free and in go/doc's stable order.
func renderAPISurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["highway"]
	if !ok {
		t.Fatalf("package highway not found in .")
	}
	p := doc.New(pkg, "highway", 0)

	var b strings.Builder
	b.WriteString("# Public API of package highway.\n")
	b.WriteString("# Generated by TestAPISurface (go test -run TestAPISurface -update-api ./); do not edit.\n")

	render := func(node any) {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(stripComments(buf.String()), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			b.WriteString(strings.TrimRight(line, " \t"))
			b.WriteByte('\n')
		}
	}
	renderFunc := func(f *doc.Func) {
		decl := *f.Decl
		decl.Body = nil
		decl.Doc = nil
		render(&decl)
	}

	b.WriteString("\n## Constants and variables\n")
	for _, c := range append(append([]*doc.Value(nil), p.Consts...), p.Vars...) {
		decl := *c.Decl
		decl.Doc = nil
		render(&decl)
	}

	b.WriteString("\n## Functions\n")
	for _, f := range p.Funcs {
		renderFunc(f)
	}

	b.WriteString("\n## Types\n")
	for _, tp := range p.Types {
		decl := *tp.Decl
		decl.Doc = nil
		render(&decl)
		for _, c := range append(append([]*doc.Value(nil), tp.Consts...), tp.Vars...) {
			d := *c.Decl
			d.Doc = nil
			render(&d)
		}
		for _, f := range tp.Funcs {
			renderFunc(f)
		}
		for _, m := range tp.Methods {
			renderFunc(m)
		}
	}
	return b.String()
}

var lineComment = regexp.MustCompile(`\s*//[^\n]*`)

// stripComments drops comments so the surface file records signatures,
// not prose (doc updates must not churn it).
func stripComments(s string) string {
	return lineComment.ReplaceAllString(s, "")
}

// surfaceDiff renders a compact line diff for the failure message.
func surfaceDiff(want, got string) string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	seen := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		seen[l] = true
	}
	var b strings.Builder
	for _, l := range gotLines {
		if !seen[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	inGot := make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		inGot[l] = true
	}
	for _, l := range wantLines {
		if !inGot[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	if b.Len() == 0 {
		return "(ordering or whitespace change)"
	}
	return b.String()
}

// TestAPISurfaceHasBuild spot-checks that the golden surface indeed
// covers the one way to build the paper's index, so the golden file
// cannot silently be regenerated empty.
func TestAPISurfaceHasBuild(t *testing.T) {
	got := renderAPISurface(t)
	for _, needle := range []string{
		"type Index = core.Index\nfunc Build(ctx context.Context, g *Graph, landmarks []int32, opt BuildOptions) (*Index, error)",
		"type BuildOptions = core.Options",
		"DistanceIndex = method.DistanceIndex",
	} {
		if !strings.Contains(got, needle) {
			t.Errorf("API surface lacks %q", needle)
		}
	}
}
