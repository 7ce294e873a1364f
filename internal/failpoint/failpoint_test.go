package failpoint

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedIsNil(t *testing.T) {
	defer Reset()
	if err := Eval("never.armed"); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
	if Enabled("never.armed") {
		t.Fatal("disarmed failpoint reports Enabled")
	}
}

func TestErrorInjection(t *testing.T) {
	defer Reset()
	if err := Set("a", "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	err := Eval("a")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("message lost: %v", err)
	}
	// Other names stay disarmed.
	if err := Eval("b"); err != nil {
		t.Fatalf("unrelated failpoint fired: %v", err)
	}
	Clear("a")
	if err := Eval("a"); err != nil {
		t.Fatalf("cleared failpoint fired: %v", err)
	}
}

func TestFailNTimes(t *testing.T) {
	defer Reset()
	if err := Set("n", "2*error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Eval("n"); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: want injection, got %v", i, err)
		}
	}
	if err := Eval("n"); err != nil {
		t.Fatalf("exhausted failpoint fired: %v", err)
	}
	if got := Hits("n"); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
	if Enabled("n") {
		t.Fatal("exhausted failpoint reports Enabled")
	}
	// Re-arming an exhausted point works and keeps the global count
	// consistent (Eval's fast path must still see it).
	if err := Set("n", "error"); err != nil {
		t.Fatal(err)
	}
	if err := Eval("n"); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-armed failpoint did not fire: %v", err)
	}
}

func TestDelay(t *testing.T) {
	defer Reset()
	if err := Set("d", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := Eval("d"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if el := time.Since(t0); el < 25*time.Millisecond {
		t.Fatalf("delay too short: %v", el)
	}
}

func TestParseErrors(t *testing.T) {
	defer Reset()
	for _, spec := range []string{
		"", "bogus", "error(unclosed", "0*error", "-1*error", "x*error",
		"delay", "delay(nope)", "delay(-1s)", "panic", "panic(boom)",
	} {
		if err := Set("bad", spec); err == nil {
			t.Errorf("spec %q: want parse error", spec)
		}
	}
}

func TestConcurrentEval(t *testing.T) {
	defer Reset()
	if err := Set("c", "error"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				Eval("c")
				Eval("uncontested")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := Hits("c"); got != 8000 {
		t.Fatalf("Hits = %d, want 8000", got)
	}
}
