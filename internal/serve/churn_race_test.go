package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"highway/internal/wire"
)

// churnConn is one goroutine's client over the protocol under test:
// mutate sends one insert (del false) or delete batch and returns nil
// only when the server acked it; read answers one batch of pairs.
type churnConn struct {
	mutate func(del bool, edges [][2]int32) error
	read   func(pairs [][2]int32) ([]int32, error)
}

// TestLiveConcurrentChurnHTTP runs the churn drill through POST /edges,
// DELETE /edges and POST /distance/batch.
func TestLiveConcurrentChurnHTTP(t *testing.T) {
	liveChurnDrill(t, func(srv *Server) func() churnConn {
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		do := func(method, path string, body any) (int, []byte, error) {
			raw, err := json.Marshal(body)
			if err != nil {
				return 0, nil, err
			}
			req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(raw))
			if err != nil {
				return 0, nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return 0, nil, err
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			return resp.StatusCode, out, err
		}
		conn := churnConn{
			mutate: func(del bool, edges [][2]int32) error {
				method := http.MethodPost
				if del {
					method = http.MethodDelete
				}
				code, raw, err := do(method, "/edges", map[string]any{"edges": edges})
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("%s /edges: code %d err %v body %q", method, code, err, raw)
				}
				return nil
			},
			read: func(pairs [][2]int32) ([]int32, error) {
				code, raw, err := do(http.MethodPost, "/distance/batch", map[string]any{"pairs": pairs})
				if err != nil || code != http.StatusOK {
					return nil, fmt.Errorf("code %d err %v body %q", code, err, raw)
				}
				var br struct {
					Distances []int32 `json:"distances"`
				}
				if err := json.Unmarshal(raw, &br); err != nil {
					return nil, fmt.Errorf("decoding %q: %v", raw, err)
				}
				return br.Distances, nil
			},
		}
		return func() churnConn { return conn }
	})
}

// TestLiveConcurrentChurnBinary runs the churn drill through Insert,
// Delete and Batch frames, one raw protocol connection per goroutine.
func TestLiveConcurrentChurnBinary(t *testing.T) {
	liveChurnDrill(t, func(srv *Server) func() churnConn {
		addr, shutdown := admBinListener(t, srv)
		t.Cleanup(shutdown)
		return func() churnConn {
			c, r, w := binConn(t, addr)
			t.Cleanup(func() { c.Close() })
			roundTrip := func(typ, want wire.Type, payload []byte) ([]byte, error) {
				if err := w.WriteFrame(typ, payload); err != nil {
					return nil, err
				}
				if err := w.Flush(); err != nil {
					return nil, err
				}
				got, p, err := r.ReadFrame()
				if err != nil {
					return nil, err
				}
				if got == wire.TError {
					code, msg, err := wire.DecodeError(p)
					return nil, fmt.Errorf("%v answered error %v %q (decode err %v)", typ, code, msg, err)
				}
				if got != want {
					return nil, fmt.Errorf("%v answered %v, want %v", typ, got, want)
				}
				return p, nil
			}
			var dst []int32
			return churnConn{
				mutate: func(del bool, edges [][2]int32) error {
					typ, want := wire.TInsert, wire.TInsertResp
					if del {
						typ, want = wire.TDelete, wire.TDeleteResp
					}
					_, err := roundTrip(typ, want, wire.AppendPairs(nil, edges))
					return err
				},
				read: func(pairs [][2]int32) ([]int32, error) {
					p, err := roundTrip(wire.TBatch, wire.TBatchResp, wire.AppendPairs(nil, pairs))
					if err != nil {
						return nil, err
					}
					dst, err = wire.DecodeDistances(p, dst)
					return dst, err
				},
			}
		}
	})
}

// liveChurnDrill drives inserts, deletes and batch reads concurrently
// against snapshot publications and background checkpoints — the
// schedule the race detector needs to see. listen serves the live server
// over the protocol under test and returns the dialer the drill calls
// once per goroutine, on the test's goroutine. Unlike the insert-only
// stress test there is no monotonic-distance invariant (deletions
// legitimately raise distances), so the invariants here are:
//
//   - reads never error: every batch query is answered with one
//     in-range answer per pair, through every swap and WAL append;
//   - every mutation is acked (this test injects no faults, so the
//     degraded taxonomy should never fire);
//   - the counters reconcile: accepted insert/delete op totals in
//     LiveStats equal what the writers were acked for.
func liveChurnDrill(t *testing.T, listen func(srv *Server) (dial func() churnConn)) {
	const (
		nVertices = 400
		rounds    = 40
		nReaders  = 3
	)
	g, _, ix := liveBase(t, nVertices, 8)
	graphPath, indexPath, _ := saveBase(t, g, ix)
	walPath := filepath.Join(t.TempDir(), "churn.wal")
	// Threshold low enough that the churn triggers checkpoints (and WAL
	// compactions) while the writers and readers are live.
	srv, err := LoadLive(graphPath, indexPath, walPath, LiveConfig{RebuildThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := listen(srv)

	// The deleter targets real base edges (captured up front, so no
	// coordination with the inserter is needed): those deletions dirty
	// landmarks and force actual repair work under the churn. Repeats
	// are acked no-ops by contract.
	var baseEdges [][2]int32
	for v := int32(0); v < nVertices; v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				baseEdges = append(baseEdges, [2]int32{v, u})
			}
		}
	}

	errc := make(chan error, 2+nReaders)
	var wg sync.WaitGroup

	// Writer 1: inserts random pairs.
	wg.Add(1)
	var inserted int64
	go func(c churnConn) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(41))
		for r := 0; r < rounds; r++ {
			batch := randBatch(rng, nVertices, 3)
			if err := c.mutate(false, batch); err != nil {
				errc <- fmt.Errorf("insert round %d: %v", r, err)
				return
			}
			inserted += int64(len(batch))
		}
	}(dial())

	// Writer 2: deletes base edges.
	wg.Add(1)
	var deleted int64
	go func(c churnConn) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(43))
		for r := 0; r < rounds; r++ {
			batch := [][2]int32{
				baseEdges[rng.Intn(len(baseEdges))],
				baseEdges[rng.Intn(len(baseEdges))],
			}
			if err := c.mutate(true, batch); err != nil {
				errc <- fmt.Errorf("delete round %d: %v", r, err)
				return
			}
			deleted += int64(len(batch))
		}
	}(dial())

	// Readers: batch reads must succeed with sane answers on every
	// snapshot the churn publishes.
	for i := 0; i < nReaders; i++ {
		wg.Add(1)
		go func(c churnConn, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds*2; r++ {
				pairs := make([][2]int32, 64)
				for i := range pairs {
					pairs[i] = [2]int32{rng.Int31n(nVertices), rng.Int31n(nVertices)}
				}
				ds, err := c.read(pairs)
				if err != nil {
					errc <- fmt.Errorf("reader %d round %d: %v", seed, r, err)
					return
				}
				if len(ds) != len(pairs) {
					errc <- fmt.Errorf("reader %d round %d: %d answers for %d pairs", seed, r, len(ds), len(pairs))
					return
				}
				for j, d := range ds {
					if d < -1 || int(d) >= nVertices {
						errc <- fmt.Errorf("reader %d round %d: pair %d: insane distance %d", seed, r, j, d)
						return
					}
				}
			}
		}(dial(), int64(100+i))
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := srv.LiveStats()
	if st.AcceptedEdges != inserted || st.AcceptedDeletes != deleted {
		t.Fatalf("counters do not reconcile: accepted %d/%d inserts, %d/%d deletes",
			st.AcceptedEdges, inserted, st.AcceptedDeletes, deleted)
	}
	if st.EdgesDeleted == 0 {
		t.Fatal("no deletion took effect: the deleter never exercised the repair path")
	}
}
