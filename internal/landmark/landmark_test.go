package landmark

import (
	"testing"

	"highway/internal/gen"
)

func TestSelectDegree(t *testing.T) {
	g := gen.Star(10) // center 0 has the top degree
	lm, err := Select(g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lm) != 1 || lm[0] != 0 {
		t.Fatalf("lm = %v, want [0]", lm)
	}
}

func TestSelectDegreeTop20(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 1)
	lm, err := Select(g, Options{K: 20, Strategy: Degree})
	if err != nil {
		t.Fatal(err)
	}
	if len(lm) != 20 || cap(lm) != 20 {
		t.Fatalf("len = %d, cap = %d: want 20 ids with no vertex order behind them", len(lm), cap(lm))
	}
	// Decreasing degree.
	for i := 1; i < len(lm); i++ {
		if g.Degree(lm[i-1]) < g.Degree(lm[i]) {
			t.Fatalf("not sorted by degree at %d", i)
		}
	}
	// The minimum selected degree must be ≥ the max unselected degree.
	sel := make(map[int32]bool)
	for _, v := range lm {
		sel[v] = true
	}
	minSel := g.Degree(lm[len(lm)-1])
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if !sel[v] && g.Degree(v) > minSel {
			t.Fatalf("vertex %d (deg %d) beats selected landmark (deg %d)", v, g.Degree(v), minSel)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := Select(g, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Select(g, Options{K: 6}); err == nil {
		t.Error("K>n accepted")
	}
	if _, err := Select(g, Options{K: 2, Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}
