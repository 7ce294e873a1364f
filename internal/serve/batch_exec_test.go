package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// its k-th poll (never, for k = 0) and counts every poll. The batch
// executor polls once per CancelCheckEvery-pair chunk, so "how many pairs
// ran before the cancellation was seen" is exact, not a timing guess.
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

// TestDistanceBatchContextCancel pins the cancellation bound: a context
// that reports cancellation at its k-th poll stops the batch after the
// k-1 chunks that ran before it, and ctx.Err() comes back with exactly
// those chunks' answers.
func TestDistanceBatchContextCancel(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	pairs := batchPairs(ix, 10*CancelCheckEvery+7)
	for _, k := range []int64{2, 3, 10} {
		ctx := &countingCtx{Context: context.Background(), k: k}
		out, err := s.DistanceBatchContext(ctx, pairs, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if want := int(k-1) * CancelCheckEvery; len(out) != want || ctx.polls.Load() != k {
			t.Fatalf("k=%d: %d answers after %d polls, want %d after %d", k, len(out), ctx.polls.Load(), want, k)
		}
		checkAnswers(t, ix, pairs, out)
	}
}

// TestDistanceBatchContextPreCancelled: an already-dead context runs
// zero pairs.
func TestDistanceBatchContextPreCancelled(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	ctx := &countingCtx{Context: context.Background(), k: 1}
	out, err := s.DistanceBatchContext(ctx, batchPairs(ix, 10_000), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 || ctx.polls.Load() != 1 {
		t.Fatalf("%d answers after %d polls under a pre-cancelled context", len(out), ctx.polls.Load())
	}
}

// TestDistanceBatchNoContextCompletes pins the wrapper's contract: the
// context-free DistanceBatch always runs to completion, chunk boundaries
// included, into dst when it has the capacity.
func TestDistanceBatchNoContextCompletes(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	pairs := batchPairs(ix, 3*CancelCheckEvery+7)
	dst := make([]int32, 1, len(pairs))
	out, err := s.DistanceBatch(pairs, dst)
	if err != nil || len(out) != len(pairs) || &out[0] != &dst[0] {
		t.Fatalf("DistanceBatch: %v, %d answers, dst reused %v", err, len(out), &out[0] == &dst[0])
	}
	checkAnswers(t, ix, pairs, out)
}

// TestBatchHandlerClientDisconnect verifies the HTTP plumbing: when the
// request context is cancelled mid-batch, the cancellation reaches the
// executor through r.Context() and the handler abandons the remaining
// pairs instead of computing a response nobody reads. The counting
// context, installed on top of r.Context(), reports the cancellation at
// its third poll: the executor stops there, and the client gets no
// answers.
func TestBatchHandlerClientDisconnect(t *testing.T) {
	s := New(testIndex(t), Config{})
	h := s.Handler()
	served := make(chan *countingCtx, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := &countingCtx{Context: r.Context(), k: 3}
		h.ServeHTTP(w, r.WithContext(ctx))
		served <- ctx
	}))
	defer ts.Close()

	total := 40 * CancelCheckEvery
	var body bytes.Buffer
	body.WriteString(`{"pairs":[`)
	for i := 0; i < total; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`[1,2]`)
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
