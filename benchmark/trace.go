package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The program under
// test has no spans of its own yet, so every span is recorded from the
// benchmark's files around a call into a layer's exported functions.
// Spans of one request share Req; Parent is the ID of the span that
// caused this one (-1 for a request's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans and counters in memory until the workload ends.
// A nil *recorder is tracing switched off: every method is a no-op, so
// call sites need no branches.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters map[string]int64
	nextReq  int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counters: map[string]int64{}}
}

// request allocates the identifier the spans of one request share.
func (r *recorder) request() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextReq++
	return r.nextReq
}

func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfNs is a span's duration minus the part of that interval its child
// spans cover (overlapping children are counted once).
func selfNs(s span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), s.Start
	for _, c := range children {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.End - s.Start - covered
}

func (r *recorder) childrenOf() map[int32][]span {
	kids := map[int32][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

func (r *recorder) summary() map[string]spanSummary {
	kids := r.childrenOf()
	out := map[string]spanSummary{}
	for _, s := range r.spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(selfNs(s, kids[s.ID])) / 1e6
		out[s.Name] = sum
	}
	return out
}

// validate checks that the span trees are well-formed: every span is
// closed, a child lies inside its parent and shares its request id, and
// no self time is negative.
func (r *recorder) validate() error {
	kids := r.childrenOf()
	for _, s := range r.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never ended", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := r.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %q [%d,%d] outside parent %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if s.Req != p.Req {
				return fmt.Errorf("span %d %q has request %d, parent %q has %d", s.ID, s.Name, s.Req, p.Name, p.Req)
			}
		}
		if selfNs(s, kids[s.ID]) < 0 {
			return fmt.Errorf("span %d %q has negative self time", s.ID, s.Name)
		}
	}
	return nil
}

// traceFile is the shape of out/<workload>.trace.json.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Summary  map[string]spanSummary `json:"summary"`
	Counters map[string]int64       `json:"counters"`
	Spans    []span                 `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Summary: r.summary(), Counters: r.counters, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
