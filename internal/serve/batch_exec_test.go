package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"highway/internal/core"
	"highway/internal/workload"
)

// countingCtx is a context whose Err starts returning context.Canceled at
// its k-th poll (never, for k = 0) and counts every poll. Core's batch
// executor polls at set points of its work (before the first source
// group, then once 1 024 more pairs are answered, every 1 024 per-pair
// refinements and every level of a shared source BFS), so where a batch
// stops is a poll count, not a timing guess.
type countingCtx struct {
	context.Context
	k     int64
	polls atomic.Int64
}

func (c *countingCtx) Err() error {
	if n := c.polls.Add(1); c.k > 0 && n >= c.k {
		return context.Canceled
	}
	return c.Context.Err()
}

// batchPairs returns count random pairs of ix's graph.
func batchPairs(ix *core.Index, count int) [][2]int32 {
	pairs := make([][2]int32, count)
	for i, p := range workload.RandomPairs(ix.Graph(), count, 5) {
		pairs[i] = [2]int32{p.S, p.T}
	}
	return pairs
}

// checkAnswers fails unless got[i] is ix's distance for pairs[i].
func checkAnswers(t *testing.T, ix *core.Index, pairs [][2]int32, got []int32) {
	t.Helper()
	sr := ix.Searcher()
	for i, d := range got {
		if want := sr.Distance(pairs[i][0], pairs[i][1]); d != want {
			t.Fatalf("answer %d: d(%d,%d) = %d, want %d", i, pairs[i][0], pairs[i][1], d, want)
		}
	}
}

// TestBackendBatchCancel pins the backend's cancellation: a
// served batch is one call into core, which polls the request's context
// at least once every 2 048 pairs of these (uniform pairs of a 500-vertex
// graph, refined pair by pair), and a context that reports cancellation
// at any poll stops the batch there, with ctx.Err() and no answers.
func TestBackendBatchCancel(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	pairs := batchPairs(ix, 10*1024+7)
	full := &countingCtx{Context: context.Background()}
	out, err := s.backend.DistanceBatch(full, pairs, nil)
	if err != nil || len(out) != len(pairs) {
		t.Fatalf("uncancelled: %d answers, %v", len(out), err)
	}
	checkAnswers(t, ix, pairs, out)
	polls := full.polls.Load()
	if polls < int64(len(pairs)/2048) {
		t.Fatalf("%d polls over %d pairs", polls, len(pairs))
	}
	for _, k := range []int64{2, 3, polls} {
		ctx := &countingCtx{Context: context.Background(), k: k}
		out, err := s.backend.DistanceBatch(ctx, pairs, nil)
		if !errors.Is(err, context.Canceled) || out != nil || ctx.polls.Load() != k {
			t.Fatalf("k=%d: %d answers, %v, after %d polls", k, len(out), err, ctx.polls.Load())
		}
	}
}

// TestBackendBatchPreCancelled: an already-dead context runs
// zero pairs.
func TestBackendBatchPreCancelled(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	ctx := &countingCtx{Context: context.Background(), k: 1}
	out, err := s.backend.DistanceBatch(ctx, batchPairs(ix, 10_000), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil || ctx.polls.Load() != 1 {
		t.Fatalf("%d answers after %d polls under a pre-cancelled context", len(out), ctx.polls.Load())
	}
}

// TestDistanceBatchNoContextCompletes pins Server.DistanceBatch's
// contract: it runs the backend's path under context.Background(), so a
// batch of several thousand pairs always runs to completion, into dst
// when it has the capacity.
func TestDistanceBatchNoContextCompletes(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	pairs := batchPairs(ix, 3*1024+7)
	dst := make([]int32, 1, len(pairs))
	out, err := s.DistanceBatch(pairs, dst)
	if err != nil || len(out) != len(pairs) || &out[0] != &dst[0] {
		t.Fatalf("DistanceBatch: %v, %d answers, dst reused %v", err, len(out), &out[0] == &dst[0])
	}
	checkAnswers(t, ix, pairs, out)
}

// TestBatchHandlerClientDisconnect verifies the HTTP plumbing: when the
// request context is cancelled mid-batch, the cancellation reaches core's
// executor through r.Context() and the handler abandons the remaining
// pairs instead of computing a response nobody reads. The counting
// context, installed on top of r.Context(), reports the cancellation at
// its third poll: the executor stops there, and the client gets no
// answers.
func TestBatchHandlerClientDisconnect(t *testing.T) {
	ix := testIndex(t)
	h := New(ix, Config{}).Handler()
	served := make(chan *countingCtx, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := &countingCtx{Context: r.Context(), k: 3}
		h.ServeHTTP(w, r.WithContext(ctx))
		served <- ctx
	}))
	defer ts.Close()

	// Uniform pairs: the executor polls every 1 024 or so, far more than
	// three times over these.
	var body bytes.Buffer
	body.WriteString(`{"pairs":[`)
	for i, p := range batchPairs(ix, 40*1024) {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d,%d]", p[0], p[1])
	}
	body.WriteString(`]}`)

	resp, err := http.Post(ts.URL+"/distance/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("handler answered a cancelled batch: %d %.80s", resp.StatusCode, got)
	}
	// The executor's three polls, then the handler's check that there is
	// nobody left to answer.
	if polls := (<-served).polls.Load(); polls != 4 {
		t.Fatalf("request context polled %d times, want 4", polls)
	}
}

// TestBatchRaceWithInserts drives concurrent batch reads against edge
// inserts on a live server — under -race this pins that the vectorized
// batch path only ever touches immutable snapshot state while writers
// publish new snapshots. Distances may differ between batches as edges
// land (each batch reads one consistent snapshot), so the assertions
// are shape and plausibility, not exact values.
func TestBatchRaceWithInserts(t *testing.T) {
	g, _, ix := liveBase(t, 300, 8)
	s, err := NewLive(ix, LiveConfig{RebuildThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := int32(g.NumVertices())

	// Source-skewed pairs so the vectorized group path runs.
	var body bytes.Buffer
	body.WriteString(`{"pairs":[`)
	for i := 0; i < 600; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteByte('[')
		body.WriteString(strconv.Itoa(i % 4))
		body.WriteByte(',')
		body.WriteString(strconv.Itoa(i % int(n)))
		body.WriteByte(']')
	}
	body.WriteString(`]}`)
	batchBody := body.String()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := http.Post(ts.URL+"/distance/batch", "application/json", strings.NewReader(batchBody))
				if err != nil {
					t.Error(err)
					return
				}
				var br batchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("batch: %d %v", resp.StatusCode, err)
					return
				}
				if len(br.Distances) != 600 {
					t.Errorf("batch answered %d pairs", len(br.Distances))
					return
				}
				for _, d := range br.Distances {
					if d < -1 || d > n {
						t.Errorf("implausible distance %d", d)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			a, b := i%int(n), (i*7+1)%int(n)
			body := `{"edge":[` + strconv.Itoa(a) + `,` + strconv.Itoa(b) + `]}`
			resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("insert: %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}
