package highway_test

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDependencyRule holds the module's packages to DESIGN.md's dependency
// rule, read from their sources with go/build:
//
//   - no package of the module imports internal/dynhl, which exists for
//     benchmark/ (a module of its own) alone; test files count too;
//   - serve and cluster import internal/core, whose Rows.ApplyOps is their
//     write path;
//   - internal/method, internal/wire and internal/failpoint import the
//     standard library only, and internal/hlclient imports internal/wire
//     and the standard library only: a native client links no server.
func TestDependencyRule(t *testing.T) {
	const dynhl = "highway/internal/dynhl"
	pkgs := map[string]*build.Package{} // by import path
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "benchmark" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		pkgs[filepath.ToSlash(filepath.Join("highway", path))] = pkg
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found %d packages: the walk missed the module", len(pkgs))
	}
	for path, pkg := range pkgs {
		if path != dynhl && slices.Contains(slices.Concat(pkg.Imports, pkg.TestImports, pkg.XTestImports), dynhl) {
			t.Errorf("%s imports internal/dynhl; only benchmark/ may", path)
		}
	}
	for _, path := range []string{"highway/internal/serve", "highway/internal/cluster"} {
		if pkg := pkgs[path]; pkg == nil || !slices.Contains(pkg.Imports, "highway/internal/core") {
			t.Errorf("%s does not import internal/core, its write path", path)
		}
	}
	for path, allowed := range map[string][]string{
		"highway/internal/method":    nil,
		"highway/internal/wire":      nil,
		"highway/internal/failpoint": nil,
		"highway/internal/hlclient":  {"highway/internal/wire"},
	} {
		pkg := pkgs[path]
		if pkg == nil {
			t.Fatalf("%s not found", path)
		}
		for _, imp := range pkg.Imports {
			first, _, _ := strings.Cut(imp, "/")
			if (first == "highway" || strings.Contains(first, ".")) && !slices.Contains(allowed, imp) {
				t.Errorf("%s imports %s; it may import %s only", path, imp, strings.Join(append(allowed, "the standard library"), " and "))
			}
		}
	}
}
