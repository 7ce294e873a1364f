package highway_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"highway/internal/serve"
	"highway/internal/wire"
)

// TestDocRefsExist fails when a Go comment or a curated markdown doc
// references a markdown file that does not exist, so documentation
// pointers (DESIGN.md, EXPERIMENTS.md, README.md, …) cannot rot. It
// runs with the normal test suite.
//
// Scanned: every .go file's comments (line and doc comments), plus the
// curated docs listed below. Deliberately NOT scanned: PAPERS.md,
// SNIPPETS.md, ISSUE.md, REVIEW.md and CHANGES.md, which quote external
// material and per-PR logs that may name files from other repositories.
func TestDocRefsExist(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The test runs in the package directory == repository root (this
	// file lives at the root). Guard against being moved.
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("expected to run at the repository root: %v", err)
	}

	mdRef := regexp.MustCompile(`[A-Za-z0-9_\-./]*[A-Za-z0-9_\-]\.md\b`)
	curated := map[string]bool{
		"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true,
		"PROTOCOL.md": true,
	}

	// The un-scanned files are not required to exist either: the PR
	// pipeline adds and removes them between changes.
	transient := map[string]bool{
		"PAPERS.md": true, "SNIPPETS.md": true, "ISSUE.md": true, "REVIEW.md": true, "CHANGES.md": true,
	}

	var violations []string
	checkLine := func(path string, lineNo int, text string) {
		for _, ref := range mdRef.FindAllString(text, -1) {
			if strings.Contains(text, "://") {
				continue // URLs point elsewhere
			}
			if transient[ref] {
				continue
			}
			// Resolve relative to the repo root, then relative to the
			// referencing file; either existing is fine.
			if _, err := os.Stat(filepath.Join(root, ref)); err == nil {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), ref)); err == nil {
				continue
			}
			violations = append(violations, strings.TrimPrefix(path, root+"/")+
				":"+itoa(lineNo)+": reference to missing "+ref)
		}
	}

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		isGo := strings.HasSuffix(path, ".go")
		isCurated := curated[filepath.Base(path)] && filepath.Dir(path) == root
		if !isGo && !isCurated {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for lineNo := 1; sc.Scan(); lineNo++ {
			line := sc.Text()
			if isGo {
				// Only comments: references inside string literals are
				// data, not documentation.
				i := strings.Index(line, "//")
				if i < 0 {
					continue
				}
				line = line[i:]
			}
			checkLine(path, lineNo, line)
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// TestProtocolDocMatchesWire pins PROTOCOL.md to the wire package in
// both directions: every record type and error code the implementation
// knows must appear in the spec's tables under its canonical name and
// value, and every type-looking table row in the spec must correspond
// to an implemented constant. The error-code table's HTTP column is
// checked against serve.ErrorTable the same way. The wire format cannot
// drift from its documentation without failing the test suite.
func TestProtocolDocMatchesWire(t *testing.T) {
	doc, err := os.ReadFile("PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	// Load-bearing facts outside the tables.
	for _, want := range []string{
		fmt.Sprintf("`%s`", wire.Magic),
		"CRC-32C",
		"little-endian",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("PROTOCOL.md does not mention %s", want)
		}
	}

	// Table rows: "| 0x01 | Distance | ..." for types,
	// "| 1 | Malformed | ..." for error codes.
	typeRow := regexp.MustCompile(`(?mi)^\|\s*0x([0-9a-f]{2})\s*\|\s*([A-Za-z]+)\s*\|`)
	docTypes := map[wire.Type]string{}
	for _, m := range typeRow.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseUint(m[1], 16, 8)
		if err != nil {
			t.Fatalf("row %q: %v", m[0], err)
		}
		docTypes[wire.Type(v)] = m[2]
	}
	for typ, name := range wire.TypeNames {
		if got, ok := docTypes[typ]; !ok {
			t.Errorf("record type 0x%02x (%s) is implemented but not specified in PROTOCOL.md", byte(typ), name)
		} else if got != name {
			t.Errorf("record type 0x%02x is %q in PROTOCOL.md but %q in internal/wire", byte(typ), got, name)
		}
	}
	for typ, name := range docTypes {
		if _, ok := wire.TypeNames[typ]; !ok {
			t.Errorf("PROTOCOL.md specifies record type 0x%02x (%s) that internal/wire does not implement", byte(typ), name)
		}
	}

	// "| 7 | Overloaded | 429 + Retry-After | ..."
	codeRow := regexp.MustCompile(`(?m)^\|\s*([0-9]+)\s*\|\s*([A-Za-z]+)\s*\|\s*([0-9]{3})( \+ Retry-After)?\s*\|`)
	docCodes := map[wire.ErrorCode]string{}
	docRows := map[wire.ErrorCode]serve.ErrorRow{}
	for _, m := range codeRow.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseUint(m[1], 10, 16)
		if err != nil {
			t.Fatalf("row %q: %v", m[0], err)
		}
		status, _ := strconv.Atoi(m[3])
		docCodes[wire.ErrorCode(v)] = m[2]
		docRows[wire.ErrorCode(v)] = serve.ErrorRow{Code: wire.ErrorCode(v), Status: status, Retryable: m[4] != ""}
	}
	for _, row := range serve.ErrorTable {
		if doc := docRows[row.Code]; doc.Status != row.Status || doc.Retryable != row.Retryable {
			t.Errorf("error code %d (%s): PROTOCOL.md says HTTP %d (Retry-After %v), serve.ErrorTable says %d (%v)",
				row.Code, row.Code, doc.Status, doc.Retryable, row.Status, row.Retryable)
		}
	}
	for code, name := range wire.ErrorCodeNames {
		if got, ok := docCodes[code]; !ok {
			t.Errorf("error code %d (%s) is implemented but not specified in PROTOCOL.md", code, name)
		} else if got != name {
			t.Errorf("error code %d is %q in PROTOCOL.md but %q in internal/wire", code, got, name)
		}
	}
	for code, name := range docCodes {
		if _, ok := wire.ErrorCodeNames[code]; !ok {
			t.Errorf("PROTOCOL.md specifies error code %d (%s) that internal/wire does not implement", code, name)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
