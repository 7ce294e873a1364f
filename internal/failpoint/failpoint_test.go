package failpoint

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	fpA = New("test.a")
	fpB = New("test.b")
)

func TestDisarmedIsNil(t *testing.T) {
	defer Reset()
	if err := fpA.Eval(); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
	if got := fpA.Hits(); got != 0 {
		t.Fatalf("disarmed failpoint counts %d hits", got)
	}
}

func TestDisarmedEvalAllocatesNothing(t *testing.T) {
	defer Reset()
	if allocs := testing.AllocsPerRun(1000, func() { _ = fpA.Eval() }); allocs != 0 {
		t.Fatalf("disarmed Eval allocates %v times a call, want 0", allocs)
	}
}

func TestErrorInjection(t *testing.T) {
	defer Reset()
	fpA.Fail(0, "disk gone")
	err := fpA.Eval()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !strings.Contains(err.Error(), "disk gone") || !strings.Contains(err.Error(), "test.a") {
		t.Fatalf("message or site name lost: %v", err)
	}
	// Other sites stay disarmed.
	if err := fpB.Eval(); err != nil {
		t.Fatalf("unrelated failpoint fired: %v", err)
	}
	fpA.Clear()
	if err := fpA.Eval(); err != nil {
		t.Fatalf("cleared failpoint fired: %v", err)
	}
	if got := fpA.Hits(); got != 0 {
		t.Fatalf("Hits after Clear = %d, want 0", got)
	}
}

func TestFailNTimes(t *testing.T) {
	defer Reset()
	fpA.Fail(2, "")
	for i := 0; i < 2; i++ {
		if err := fpA.Eval(); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: want injection, got %v", i, err)
		}
	}
	if err := fpA.Eval(); err != nil {
		t.Fatalf("exhausted failpoint fired: %v", err)
	}
	if got := fpA.Hits(); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
	// Re-arming an exhausted site works and starts its count afresh.
	fpA.Fail(0, "")
	if got := fpA.Hits(); got != 0 {
		t.Fatalf("Hits after re-arming = %d, want 0", got)
	}
	if err := fpA.Eval(); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-armed failpoint did not fire: %v", err)
	}
	if got := fpA.Hits(); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
}

func TestDelay(t *testing.T) {
	defer Reset()
	fpA.Delay(1, 30*time.Millisecond)
	t0 := time.Now()
	if err := fpA.Eval(); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if el := time.Since(t0); el < 25*time.Millisecond {
		t.Fatalf("delay too short: %v", el)
	}
	t0 = time.Now()
	if err := fpA.Eval(); err != nil {
		t.Fatalf("exhausted delay returned error: %v", err)
	}
	if el := time.Since(t0); el >= 25*time.Millisecond {
		t.Fatalf("exhausted delay still sleeps: %v", el)
	}
	if got := fpA.Hits(); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
}

func TestResetDisarmsEverySite(t *testing.T) {
	defer Reset()
	fpA.Fail(0, "")
	fpB.Delay(0, time.Millisecond)
	fpA.Eval()
	fpB.Eval()
	Reset()
	for _, p := range []*Point{fpA, fpB} {
		if err := p.Eval(); err != nil {
			t.Fatalf("%s fired after Reset: %v", p.name, err)
		}
		if got := p.Hits(); got != 0 {
			t.Fatalf("%s Hits after Reset = %d, want 0", p.name, got)
		}
	}
}

// evalConcurrently has 8 goroutines evaluate p 1000 times each and
// returns how many evaluations injected an error.
func evalConcurrently(p *Point) int64 {
	var (
		wg    sync.WaitGroup
		fired atomic.Int64
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if p.Eval() != nil {
					fired.Add(1)
				}
				fpB.Eval() // a disarmed site beside it
			}
		}()
	}
	wg.Wait()
	return fired.Load()
}

func TestConcurrentEval(t *testing.T) {
	defer Reset()
	fpA.Fail(0, "")
	if fired := evalConcurrently(fpA); fired != 8000 {
		t.Fatalf("fired %d times, want 8000", fired)
	}
	if got := fpA.Hits(); got != 8000 {
		t.Fatalf("Hits = %d, want 8000", got)
	}
}

func TestConcurrentFailNTimes(t *testing.T) {
	defer Reset()
	fpA.Fail(1000, "")
	if fired := evalConcurrently(fpA); fired != 1000 {
		t.Fatalf("fired %d times, want exactly 1000", fired)
	}
	if got := fpA.Hits(); got != 1000 {
		t.Fatalf("Hits = %d, want 1000", got)
	}
}
