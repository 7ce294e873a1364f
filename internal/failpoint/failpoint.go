// Package failpoint is the fault-injection substrate of the serving
// tier: named points in production code where tests (or an operator
// running a chaos drill) can inject failures — an error return, a
// delay, a panic, or a bounded burst of errors — without touching the
// code under test. The WAL, the snapshot writer and the binary listener
// all evaluate failpoints on their failure-prone paths; see DESIGN.md
// "Failure modes & degraded operation" for the site list.
//
// The design constraint is that a disarmed failpoint must cost almost
// nothing: production binaries run with every failpoint disarmed, and
// the sites sit on hot paths (every WAL append, every binary frame
// write). Eval therefore starts with one atomic load of a global
// armed-count; only when at least one failpoint is armed anywhere does
// it take the registry lock and look the name up.
//
// # Arming
//
// Tests arm failpoints with Set and clean up with Clear or Reset:
//
//	failpoint.Set("wal.sync", "error(disk gone)")
//	defer failpoint.Reset()
//
// Operators (and the chaos CI job) arm them at process start via the
// HIGHWAY_FAILPOINTS environment variable, a semicolon-separated list
// of name=spec entries:
//
//	HIGHWAY_FAILPOINTS='wal.sync=3*error(injected);serve.snapshot.write=delay(50ms)'
//
// # Spec grammar
//
//	spec    = [ count "*" ] action
//	action  = "error" [ "(" message ")" ]
//	        | "delay" "(" duration ")"
//	        | "panic" [ "(" message ")" ]
//	count   = positive integer: the failpoint fires on its first count
//	          hits, then disarms itself (fail-N-times)
//
// Without a count the failpoint fires on every hit until cleared.
// Injected errors wrap ErrInjected, so callers can distinguish an
// injected fault from a real one with errors.Is — useful when a chaos
// test needs to assert that an observed failure was its own.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every error a failpoint injects, so tests
// can tell injected faults from organic ones.
var ErrInjected = errors.New("failpoint: injected error")

// EnvVar is the environment variable scanned at init for failpoints to
// arm at process start.
const EnvVar = "HIGHWAY_FAILPOINTS"

type action uint8

const (
	actError action = iota
	actDelay
	actPanic
)

// point is one armed failpoint.
type point struct {
	act     action
	msg     string
	delay   time.Duration
	remain  int64 // hits left before self-disarm; <0 = unbounded
	hits    int64
	cleared bool // self-disarmed (count exhausted); kept for Hits
}

var (
	// armed counts failpoints currently able to fire. Eval's fast path
	// is a single load of this: zero means nothing anywhere is armed
	// and Eval returns immediately.
	armed atomic.Int64

	mu     sync.Mutex
	points = map[string]*point{}
)

func init() {
	if env := os.Getenv(EnvVar); env != "" {
		if err := SetFromEnv(env); err != nil {
			// A malformed env spec must not be silently ignored (the
			// chaos run would silently test nothing), nor can init
			// return an error: fail loudly.
			panic(fmt.Sprintf("failpoint: parsing %s: %v", EnvVar, err))
		}
	}
}

// Set arms the named failpoint with the given spec (see the package
// doc for the grammar), replacing any previous arming.
func Set(name, spec string) error {
	p, err := parse(spec)
	if err != nil {
		return fmt.Errorf("failpoint %q: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if old, ok := points[name]; ok && !old.cleared {
		armed.Add(-1)
	}
	points[name] = p
	armed.Add(1)
	return nil
}

// SetFromEnv arms every failpoint in a semicolon-separated name=spec
// list (the HIGHWAY_FAILPOINTS format).
func SetFromEnv(list string) error {
	for _, entry := range strings.Split(list, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("entry %q is not name=spec", entry)
		}
		if err := Set(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Clear disarms the named failpoint. Its hit count is forgotten.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		if !p.cleared {
			armed.Add(-1)
		}
		delete(points, name)
	}
}

// Reset disarms every failpoint and forgets all hit counts. Tests that
// arm failpoints defer this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		if !p.cleared {
			armed.Add(-1)
		}
	}
	points = map[string]*point{}
}

// Hits reports how many times the named failpoint has fired since it
// was armed (surviving self-disarm, so a fail-N-times point reports N
// after exhausting). 0 for unknown names.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// Enabled reports whether the named failpoint is currently armed and
// able to fire. Sites whose fault needs more mechanism than an error
// return (e.g. the WAL's simulated short write) branch on this.
func Enabled(name string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	return ok && !p.cleared
}

// Eval evaluates the named failpoint: nil when disarmed (the common
// case, one atomic load), otherwise the injected behavior — an error
// wrapping ErrInjected, a delay then nil, or a panic. A fail-N-times
// point disarms itself after its Nth hit.
func Eval(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok || p.cleared {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.remain > 0 {
		p.remain--
		if p.remain == 0 {
			p.cleared = true
			armed.Add(-1)
		}
	}
	act, msg, delay := p.act, p.msg, p.delay
	mu.Unlock()

	switch act {
	case actDelay:
		time.Sleep(delay)
		return nil
	case actPanic:
		panic(fmt.Sprintf("failpoint %q: %s", name, msg))
	default:
		return fmt.Errorf("%w: %s: %s", ErrInjected, name, msg)
	}
}

// parse compiles a spec string into a point.
func parse(spec string) (*point, error) {
	spec = strings.TrimSpace(spec)
	p := &point{remain: -1}
	if i := strings.Index(spec, "*"); i >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(spec[:i]), 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count in spec %q", spec)
		}
		p.remain = n
		spec = strings.TrimSpace(spec[i+1:])
	}
	name, arg := spec, ""
	if i := strings.Index(spec, "("); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("unclosed argument in spec %q", spec)
		}
		name, arg = spec[:i], spec[i+1:len(spec)-1]
	}
	switch name {
	case "error":
		p.act = actError
		p.msg = arg
		if p.msg == "" {
			p.msg = "injected"
		}
	case "delay":
		p.act = actDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay in spec %q", spec)
		}
		p.delay = d
	case "panic":
		p.act = actPanic
		p.msg = arg
		if p.msg == "" {
			p.msg = "injected panic"
		}
	default:
		return nil, fmt.Errorf("unknown action %q (want error, delay or panic)", name)
	}
	return p, nil
}
