package highway_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatch: a `go test -run` or `-fuzz` pattern that matches
// no function passes silently, so a CI step whose test was renamed or
// deleted would keep passing while it ran nothing. Every alternative of
// every such pattern in .github/workflows/ci.yml (but -run=NONE, which
// runs no test on purpose) must match a Test, Fuzz or Example function of
// a package the same command tests.
func TestCIRunPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`-(run|fuzz)[= ]('[^']*'|\S+)`)
	checked := 0
	for _, line := range strings.Split(string(raw), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		patterns := flagRE.FindAllStringSubmatch(line[i:], -1)
		if len(patterns) == 0 {
			continue
		}
		fields := strings.Fields(line[i:])
		dir := "."
		var pkgs []string
		for j, f := range fields {
			switch {
			case f == "-C" && j+1 < len(fields):
				dir = fields[j+1]
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			}
		}
		var names []string
		for _, pkg := range pkgs {
			names = append(names, testFuncs(t, filepath.Join(dir, pkg))...)
		}
		for _, m := range patterns {
			for _, alt := range strings.Split(strings.Trim(m[2], "'"), "|") {
				if alt == "NONE" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: -%s %q: %v", m[1], alt, err)
					continue
				}
				if !containsMatch(names, re) {
					t.Errorf("ci.yml: -%s alternative %q matches no Test, Fuzz or Example function in %v", m[1], alt, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz pattern found in ci.yml")
	}
}

// testFuncs returns the names of the Test, Fuzz and Example functions of
// the package in dir, or of every package under it for a pattern ending
// in "/...".
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
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz") || strings.HasPrefix(fn.Name.Name, "Example")) {
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

// containsMatch reports whether re matches any of names.
func containsMatch(names []string, re *regexp.Regexp) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
