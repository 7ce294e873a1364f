// Package failpoint is the fault-injection substrate of the serving
// tier: typed sites in production code where tests can inject
// failures — an error return, a delay, or a bounded burst of either —
// without touching the code under test. The WAL, the snapshot writer
// and the binary listener all evaluate sites on their failure-prone
// paths; see DESIGN.md "Failure modes & degraded operation" for the
// site list.
//
// A site is a package variable made once with New, and the code under
// test calls its Eval. A disarmed site must cost almost nothing:
// production binaries run with every site disarmed, and the sites sit
// on hot paths (every WAL append, every binary frame write). Eval
// therefore starts with one atomic load of the site's armed fault and
// returns nil when there is none.
//
// # Arming
//
// Sites are armed in-process only, by the tests that drive them (the
// serve package's chaos harness among them), with Fail or Delay, and
// disarmed with Clear or Reset:
//
//	serve.FPWALSync.Fail(2, "disk gone")
//	defer failpoint.Reset()
//
// An armed count n > 0 fires on the site's first n hits, then disarms
// it (fail-N-times); n ≤ 0 fires on every hit until cleared. Injected
// errors wrap ErrInjected, so callers can distinguish an injected
// fault from a real one with errors.Is — useful when a chaos test needs
// to assert that an observed failure was its own.
package failpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every error a site injects, so tests can
// tell injected faults from organic ones.
var ErrInjected = errors.New("failpoint: injected error")

// Point is one fault-injection site.
type Point struct {
	name  string
	fault atomic.Pointer[fault] // nil while disarmed
	hits  atomic.Int64          // since the last arming; survives self-disarm
}

// fault is what an armed site does on a hit: sleep delay, then return
// err.
type fault struct {
	err   error
	delay time.Duration
	left  atomic.Int64 // hits before self-disarm, when bound
	bound bool
}

var (
	mu     sync.Mutex
	points []*Point // every site made, for Reset
)

// New makes the site called name. Call it once, in a package variable.
func New(name string) *Point {
	p := &Point{name: name}
	mu.Lock()
	points = append(points, p)
	mu.Unlock()
	return p
}

// Fail arms the site to return an error wrapping ErrInjected with msg
// on its next n hits (every hit when n ≤ 0), replacing any previous
// arming and its hit count.
func (p *Point) Fail(n int, msg string) {
	p.arm(n, &fault{err: fmt.Errorf("%w: %s: %s", ErrInjected, p.name, msg)})
}

// Delay arms the site to sleep d and then return nil on its next n hits
// (every hit when n ≤ 0), replacing any previous arming and its hit
// count.
func (p *Point) Delay(n int, d time.Duration) {
	p.arm(n, &fault{delay: d})
}

func (p *Point) arm(n int, f *fault) {
	if n > 0 {
		f.left.Store(int64(n))
		f.bound = true
	}
	p.hits.Store(0)
	p.fault.Store(f)
}

// Clear disarms the site and forgets its hit count.
func (p *Point) Clear() {
	p.fault.Store(nil)
	p.hits.Store(0)
}

// Reset disarms every site and forgets every hit count. Tests that arm
// sites defer this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		p.Clear()
	}
}

// Hits reports how many times the site has fired since it was last
// armed, surviving self-disarm: a fail-N-times site reports N once
// exhausted.
func (p *Point) Hits() int64 { return p.hits.Load() }

// Eval evaluates the site: nil when disarmed (the common case, one
// atomic load), otherwise the armed fault — an error wrapping
// ErrInjected, or a delay then nil. A fail-N-times site disarms itself
// on its Nth hit.
func (p *Point) Eval() error {
	f := p.fault.Load()
	if f == nil {
		return nil
	}
	if f.bound {
		left := f.left.Add(-1)
		if left < 0 {
			return nil // another goroutine took the last hit
		}
		if left == 0 {
			p.fault.CompareAndSwap(f, nil)
		}
	}
	p.hits.Add(1)
	time.Sleep(f.delay)
	return f.err
}
