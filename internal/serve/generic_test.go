package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"highway/internal/gen"
	"highway/internal/isl"
	"highway/internal/pll"
)

// TestNewIndexServesAnyMethod: the read path never looks past the
// DistanceIndex interface. Only the highway cover labelling is served
// (New, NewLive), but a server holding a baseline's index through the
// unexported constructor answers the full read-only HTTP surface: single
// queries, batches, stats (which must name the method), and no mutation
// API.
func TestNewIndexServesAnyMethod(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 9)
	ctx := context.Background()

	pllIx, err := pll.Build(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	islIx, err := isl.Build(ctx, g, isl.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]*Server{
		"pll": newServer(pllIx, g.NumVertices(), Config{}),
		"isl": newServer(islIx, g.NumVertices(), Config{}),
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var dr struct {
				Distance int32 `json:"distance"`
			}
			if code := getJSON(t, ts.URL+"/distance?s=0&t=7", &dr); code != http.StatusOK {
				t.Fatalf("GET /distance: status %d", code)
			}
			// Every method is exact, so the full PLL cover is ground
			// truth for both servers.
			if want := pllIx.Distance(0, 7); dr.Distance != want {
				t.Fatalf("served distance %d, want %d", dr.Distance, want)
			}

			resp, err := http.Post(ts.URL+"/distance/batch", "application/json",
				strings.NewReader(`{"pairs":[[0,1],[2,3]]}`))
			if err != nil {
				t.Fatal(err)
			}
			var br struct {
				Count     int     `json:"count"`
				Distances []int32 `json:"distances"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if br.Count != 2 {
				t.Fatalf("batch count %d, want 2", br.Count)
			}

			var st struct {
				Index struct {
					Method string `json:"method"`
					N      int    `json:"n"`
				} `json:"index"`
			}
			if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
				t.Fatalf("GET /stats: status %d", code)
			}
			if st.Index.Method != name {
				t.Fatalf("/stats method = %q, want %q", st.Index.Method, name)
			}
			if st.Index.N != g.NumVertices() {
				t.Fatalf("/stats n = %d, want %d", st.Index.N, g.NumVertices())
			}

			// Read-only: the mutation routes are not registered at all.
			resp, err = http.Post(ts.URL+"/edges", "application/json", strings.NewReader(`{"edge":[0,1]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				t.Fatal("read-only generic server accepted POST /edges")
			}

			// Out-of-range validation still works without a graph.
			resp, err = http.Get(ts.URL + "/distance?s=0&t=99999")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("out-of-range vertex: status %d, want 400", resp.StatusCode)
			}
		})
	}
}
