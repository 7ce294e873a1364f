// Context-aware web search: the paper's introduction cites ranking "web
// pages based on their distances to recently visited web pages" as a
// motivating application (context-aware search, Ukkonen et al.).
//
// This example builds the index over a skewed web-crawl-shaped graph
// (R-MAT), then re-ranks keyword-match candidates by their graph distance
// to the user's recent browsing context.
//
//	go run ./examples/websearch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"highway"
)

func main() {
	fmt.Println("generating a web-crawl-shaped graph (R-MAT, 2^17 pages) ...")
	raw := highway.RMAT(17, 16, 77)
	g, _ := highway.LargestComponent(raw)
	fmt.Printf("crawl: n=%d m=%d max.deg=%d\n", g.NumVertices(), g.NumEdges(), maxDeg(g))

	landmarks, err := highway.SelectLandmarks(g, 40)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	ix, err := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index ready in %s\n", time.Since(start).Round(time.Millisecond))

	// The user's context: the last 5 pages they visited. The "search
	// engine" returns 40 keyword candidates; we re-rank by the minimum
	// distance to any context page (closer = more relevant).
	rng := rand.New(rand.NewSource(5))
	recent := make([]int32, 5)
	for i := range recent {
		recent[i] = int32(rng.Intn(g.NumVertices()))
	}
	candidates := make([]int32, 40)
	for i := range candidates {
		candidates[i] = int32(rng.Intn(g.NumVertices()))
	}

	type ranked struct {
		page int32
		dist int32
	}
	sr := ix.NewSearcher()
	var out []ranked
	start = time.Now()
	for _, c := range candidates {
		best := highway.Infinity
		for _, ctx := range recent {
			if d := sr.Distance(c, ctx); d >= 0 && (best < 0 || d < best) {
				best = d
			}
		}
		out = append(out, ranked{page: c, dist: best})
	}
	elapsed := time.Since(start)
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].dist, out[j].dist
		if di < 0 {
			return false
		}
		if dj < 0 {
			return true
		}
		return di < dj
	})

	fmt.Printf("re-ranked %d candidates against %d context pages in %s\n",
		len(candidates), len(recent), elapsed.Round(time.Microsecond))
	fmt.Println("top 8 context-aware results:")
	for i := 0; i < 8 && i < len(out); i++ {
		fmt.Printf("  #%d page %6d  distance-to-context %d\n", i+1, out[i].page, out[i].dist)
	}
}

func maxDeg(g *highway.Graph) int {
	d, _ := g.MaxDegree()
	return d
}
