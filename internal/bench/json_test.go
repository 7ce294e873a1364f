package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"highway/internal/gen"
	"highway/internal/landmark"
)

// TestDNFReportedInJSON pins the -budget DNF fix: a method that blows
// its build budget must appear in the JSON report with its name and a
// reason, not as a blank row.
func TestDNFReportedInJSON(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 1)
	lm, err := landmark.Select(g, landmark.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(Config{Out: io.Discard, BuildBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.cell(MethodPLL, "tiny", g, len(lm)); !res.DNF {
		t.Fatal("PLL under a 1ns budget did not DNF")
	}
	// A cache hit must not duplicate the record.
	r.cell(MethodPLL, "tiny", g, len(lm))

	ok, err := NewRunner(Config{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res := ok.cell(MethodHL, "tiny", g, len(lm)); res.DNF {
		t.Fatalf("HL build unexpectedly DNFed: %s", res.DNFReason)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var report struct {
		BudgetSeconds float64         `json:"budget_seconds"`
		Builds        []RecordedBuild `json:"builds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(report.Builds) != 1 {
		t.Fatalf("got %d build records, want 1 (cache hits must not duplicate):\n%s", len(report.Builds), buf.String())
	}
	rec := report.Builds[0]
	if rec.Method != string(MethodPLL) || !rec.DNF {
		t.Fatalf("DNF record does not name the method: %+v", rec)
	}
	if rec.Reason == "" || !strings.Contains(rec.Reason, "budget") {
		t.Fatalf("DNF record reason %q does not explain the timeout", rec.Reason)
	}
	if rec.BudgetSeconds <= 0 {
		t.Fatalf("DNF record lacks the budget: %+v", rec)
	}
}
