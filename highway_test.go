package highway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"highway"
	"highway/internal/fd"
	"highway/internal/gen"
)

// buildHL builds the paper's labelling on all cores.
func buildHL(g *highway.Graph, lm []int32) (*highway.Index, error) {
	return highway.Build(context.Background(), g, lm, highway.BuildOptions{})
}

// buildHLSeq builds it on the calling goroutine alone: the paper's
// sequential HL.
func buildHLSeq(g *highway.Graph, lm []int32) (*highway.Index, error) {
	return highway.Build(context.Background(), g, lm, highway.BuildOptions{Workers: 1})
}

// testMethodNamed returns the testMethods entry called name.
func testMethodNamed(name string) testMethod {
	for _, m := range testMethods {
		if m.name == name {
			return m
		}
	}
	panic("no test method " + name)
}

// TestFacadeEndToEnd exercises the whole public surface the way the README
// quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	g := highway.BarabasiAlbert(2000, 4, 7)
	lm, err := highway.SelectLandmarks(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildHL(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	seqIx, err := buildHLSeq(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumEntries() != seqIx.NumEntries() {
		t.Fatal("parallel and sequential builds differ")
	}

	// Cross-check the oracle against the baselines on sampled pairs.
	ctx := context.Background()
	pllIx, err := testMethodNamed("pll").build(ctx, g, lm)
	if err != nil {
		t.Fatal(err)
	}
	fdIx, err := testMethodNamed("fd").build(ctx, g, lm)
	if err != nil {
		t.Fatal(err)
	}
	islIx, err := testMethodNamed("isl").build(ctx, g, lm)
	if err != nil {
		t.Fatal(err)
	}
	sr := ix.NewSearcher()
	fsr := fdIx.NewSearcher()
	isr := islIx.NewSearcher()
	for _, p := range highway.RandomPairs(g, 400, 3) {
		want := sr.Distance(p.S, p.T)
		if got := pllIx.Distance(p.S, p.T); got != want {
			t.Fatalf("PLL(%d,%d) = %d, HL says %d", p.S, p.T, got, want)
		}
		if got := fsr.Distance(p.S, p.T); got != want {
			t.Fatalf("FD(%d,%d) = %d, HL says %d", p.S, p.T, got, want)
		}
		if got := isr.Distance(p.S, p.T); got != want {
			t.Fatalf("IS-L(%d,%d) = %d, HL says %d", p.S, p.T, got, want)
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := highway.WattsStrogatz(300, 3, 0.1, 5)
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.bin")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	g2, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("graph IO mismatch")
	}

	lm, err := highway.SelectLandmarks(g2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildHL(g2, lm)
	if err != nil {
		t.Fatal(err)
	}
	ip := filepath.Join(dir, "g.idx")
	if err := ix.Save(ip); err != nil {
		t.Fatal(err)
	}
	ix2, err := highway.LoadIndex(ip, g2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sr1, sr2 := ix.NewSearcher(), ix2.NewSearcher()
	for i := 0; i < 200; i++ {
		s, u := int32(rng.Intn(300)), int32(rng.Intn(300))
		if sr1.Distance(s, u) != sr2.Distance(s, u) {
			t.Fatal("loaded index answers differently")
		}
	}
}

func TestFacadeBuilderAndComponents(t *testing.T) {
	b := highway.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lcc, orig := highway.LargestComponent(g)
	if lcc.NumVertices() != 3 || orig[0] != 0 {
		t.Fatalf("LCC wrong: n=%d orig=%v", lcc.NumVertices(), orig)
	}

	g2, err := highway.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	lm, _ := highway.SelectLandmarks(g2, 1)
	ix, err := buildHL(g2, lm)
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distance(0, 2); d != 2 {
		t.Fatalf("d(0,2) = %d, want 2", d)
	}
	if st := ix.Stats(); st.NumLandmarks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFacadeRMAT(t *testing.T) {
	g := highway.RMAT(10, 6, 3)
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

// TestFDDynamicViaFacade: FD is built static, as the paper measures it,
// and the facade's one dynamic path is the highway labelling's. Both
// answer the same exact distance before an insert; only DynamicIndex
// takes the insert.
func TestFDDynamicViaFacade(t *testing.T) {
	g := highway.BarabasiAlbert(300, 3, 11)
	lm, _ := highway.SelectLandmarks(g, 6)
	fdIx, err := fd.Build(context.Background(), g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(fdIx).(interface{ InsertEdges(edges [][2]int32) error }); ok {
		t.Fatal("fd index accepts edge insertions")
	}
	static, err := buildHL(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	dynIx, err := highway.DynamicFromIndex(static)
	if err != nil {
		t.Fatal(err)
	}
	before := fdIx.NewSearcher().Distance(10, 200)
	if d := dynIx.Distance(10, 200); d != before {
		t.Fatalf("fd says d(10,200) = %d, dynhl says %d", before, d)
	}
	if err := dynIx.InsertEdges([][2]int32{{10, 200}}); err != nil {
		t.Fatal(err)
	}
	if after := dynIx.Distance(10, 200); after != 1 {
		t.Fatalf("after insert d = %d, want 1 (before %d)", after, before)
	}
}

func TestDynamicIndexViaFacade(t *testing.T) {
	g := highway.BarabasiAlbert(400, 3, 13)
	lm, _ := highway.SelectLandmarks(g, 8)
	built, err := testMethodNamed("dynhl").build(context.Background(), g, lm)
	if err != nil {
		t.Fatal(err)
	}
	dyn := built.(*highway.DynamicIndex)
	static, err := buildHLSeq(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.NumEntries() != static.NumEntries() {
		t.Fatal("dynamic and static builds disagree")
	}
	before := dyn.Distance(7, 300)
	if err := dyn.InsertEdges([][2]int32{{7, 300}}); err != nil {
		t.Fatal(err)
	}
	if d := dyn.Distance(7, 300); d != 1 {
		t.Fatalf("after insert d = %d (before %d), want 1", d, before)
	}
}

// TestIndexFilesViaFacade exercises the index file surface end to end: a
// save and load, a stream round trip, the refusal of a committed v1 file,
// and the static→dynamic→frozen conversion cycle.
func TestIndexFilesViaFacade(t *testing.T) {
	g := highway.BarabasiAlbert(300, 3, 21)
	lm, _ := highway.SelectLandmarks(g, 8)
	ix, err := buildHL(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/idx.v2"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := highway.LoadIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEntries() != ix.NumEntries() {
		t.Fatal("v2 round trip changed the index")
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err = highway.ReadIndex(&buf, g); err != nil || got.NumEntries() != ix.NumEntries() {
		t.Fatalf("stream round trip: %v", err)
	}
	// One layout loads: the file written by `hlbuild -format v1` before
	// that flag went fails with the line naming the command that rewrites it.
	if _, err := highway.LoadIndex("internal/core/testdata/path300.hl1", gen.Path(300)); err == nil || !strings.Contains(err.Error(), "hlbuild migrate") {
		t.Fatalf("v1 file: %v, want the line naming hlbuild migrate", err)
	}

	// Static → dynamic without a rebuild, mutate, freeze back.
	dyn, err := highway.DynamicFromIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.InsertEdges([][2]int32{{0, 299}}); err != nil {
		t.Fatal(err)
	}
	fg, frozen, err := dyn.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if fg.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("frozen graph has %d edges, want %d", fg.NumEdges(), g.NumEdges()+1)
	}
	if d := frozen.Distance(0, 299); d != 1 {
		t.Fatalf("frozen index d(0,299) = %d, want 1", d)
	}
	if err := frozen.Verify(200, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPathViaFacade(t *testing.T) {
	g := highway.BarabasiAlbert(300, 3, 17)
	lm, _ := highway.SelectLandmarks(g, 8)
	ix, err := buildHL(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	sr := ix.Searcher()
	for _, q := range highway.RandomPairs(g, 30, 5) {
		d := sr.Distance(q.S, q.T)
		p := sr.Path(q.S, q.T)
		if d < 0 {
			if p != nil {
				t.Fatal("path for disconnected pair")
			}
			continue
		}
		if int32(len(p)) != d+1 || p[0] != q.S || p[len(p)-1] != q.T {
			t.Fatalf("bad path %v for d=%d", p, d)
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("path %v uses non-edge", p)
			}
		}
	}
}

// TestLargeScaleIntegration builds the full pipeline on a 100k-vertex
// network and verifies thousands of sampled queries against Bi-BFS-free
// ground truth (per-source BFS). Guarded by -short.
func TestLargeScaleIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale integration skipped in -short mode")
	}
	g := highway.BarabasiAlbert(100_000, 5, 99)
	lm, err := highway.SelectLandmarks(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildHL(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(3000, 123); err != nil {
		t.Fatal(err)
	}
	// Minimality at scale: ALS must stay well below k.
	if als := ix.Stats().AvgLabelSize; als >= float64(len(lm)) {
		t.Fatalf("ALS %.2f not below k=%d — minimality suspect", als, len(lm))
	}
}

// TestFacadeServe exercises the serving re-export: NewServer answering
// the package-doc example requests over a real listener, then graceful
// shutdown through context cancellation.
func TestFacadeServe(t *testing.T) {
	g := highway.BarabasiAlbert(300, 3, 8)
	lm, err := highway.SelectLandmarks(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildHL(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	srv := highway.NewServer(ix, highway.ServeConfig{})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pairs := highway.RandomPairs(g, 20, 5)
	body := `{"pairs":[`
	for i, p := range pairs {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf("[%d,%d]", p.S, p.T)
	}
	body += `]}`
	resp, err := http.Post(ts.URL+"/distance/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Count     int     `json:"count"`
		Distances []int32 `json:"distances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Count != len(pairs) {
		t.Fatalf("count = %d, want %d", got.Count, len(pairs))
	}
	for i, p := range pairs {
		if want := ix.Distance(p.S, p.T); got.Distances[i] != want {
			t.Fatalf("batch d(%d,%d) = %d, want %d", p.S, p.T, got.Distances[i], want)
		}
	}

	// ListenAndServe: bind an ephemeral port, then shut down via context.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- highway.NewServer(ix, highway.ServeConfig{}).ListenAndServe(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe returned %v after cancel, want nil", err)
	}
}
