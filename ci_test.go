package highway_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatch: a `go test` -run, -fuzz or -bench pattern that
// matches no function passes silently, so a CI step or a documented
// command whose test or benchmark was renamed or deleted would keep
// passing while it ran nothing. Every alternative of every such pattern
// in the `go test` commands of .github/workflows/ci.yml, README.md,
// DESIGN.md and EXPERIMENTS.md (but NONE and ^$, which match nothing on
// purpose) must match a function of a package the same command tests, or
// one the file writes out itself: a Test, Fuzz or Example function for
// -run and -fuzz, a Benchmark function for -bench.
func TestCIRunPatternsMatch(t *testing.T) {
	flagRE := regexp.MustCompile(`-(run|fuzz|bench)[= ]('[^']*'|\S+)`)
	for _, file := range []string{filepath.Join(".github", "workflows", "ci.yml"), "README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var own []string
		for _, m := range funcRE.FindAllStringSubmatch(string(raw), -1) {
			own = append(own, m[1])
		}
		checked := 0
		for _, cmd := range goTestCommands(string(raw), strings.HasSuffix(file, ".md")) {
			patterns := flagRE.FindAllStringSubmatch(cmd, -1)
			if len(patterns) == 0 {
				continue
			}
			dir, pkgs := ".", []string{}
			fields := strings.Fields(cmd)
			for j, f := range fields {
				switch {
				case f == "-C" && j+1 < len(fields):
					dir = fields[j+1]
				case f == "." || strings.HasPrefix(f, "./"):
					pkgs = append(pkgs, f)
				}
			}
			if len(pkgs) == 0 {
				pkgs = append(pkgs, ".")
			}
			names := slices.Clone(own)
			for _, pkg := range pkgs {
				names = append(names, testFuncs(t, filepath.Join(dir, pkg))...)
			}
			for _, m := range patterns {
				bench, kind := m[1] == "bench", "Test, Fuzz or Example"
				if bench {
					kind = "Benchmark"
				}
				// A slash separates the patterns of sub-tests and
				// sub-benchmarks; the first is the function's.
				top, _, _ := strings.Cut(strings.Trim(m[2], "'"), "/")
				for _, alt := range strings.Split(top, "|") {
					if alt == "NONE" || alt == "^$" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: -%s %q: %v", file, m[1], alt, err)
					} else if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, "Benchmark") == bench && re.MatchString(n) }) {
						t.Errorf("%s: `go test %s`: -%s alternative %q matches no %s function in %v", file, cmd, m[1], alt, kind, pkgs)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Errorf("no -run, -fuzz or -bench pattern found in %s", file)
		}
	}
}

// funcRE matches the declaration of a Test, Fuzz, Example or Benchmark
// function.
var funcRE = regexp.MustCompile(`func ((Test|Fuzz|Example|Benchmark)\w*)\(`)

// goTestCommands returns the arguments of each `go test` command in text.
// A line ending in a backslash is joined to the next, and so, in
// Markdown, is one whose inline code runs on into the next. A command
// ends with its line or its inline code, or at a pipe, && or a shell
// comment; comment lines (and Markdown headings) hold none.
func goTestCommands(text string, markdown bool) (cmds []string) {
	line := ""
	for _, l := range strings.Split(text, "\n") {
		if line += l; strings.HasSuffix(line, `\`) {
			line = strings.TrimSuffix(line, `\`) + " "
			continue
		}
		if markdown && !strings.HasPrefix(strings.TrimSpace(l), "```") && strings.Count(line, "`")%2 == 1 {
			line += " "
			continue
		}
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			for _, cmd := range strings.Split(line, "go test ")[1:] {
				for _, end := range []string{"`", " | ", "&&", " #"} {
					cmd, _, _ = strings.Cut(cmd, end)
				}
				cmds = append(cmds, cmd)
			}
		}
		line = ""
	}
	return cmds
}

// testFuncs returns the names of the Test, Fuzz, Example and Benchmark
// functions of the package in dir, or of every package under it for a
// pattern ending in "/...".
func testFuncs(t *testing.T, pkg string) (names []string) {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "...")
	err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != filepath.Clean(root) && !recursive:
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && funcRE.MatchString("func "+fn.Name.Name+"(") {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
