// Quickstart: build a highway cover distance labelling over a synthetic
// social network and answer exact distance queries in microseconds.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"highway"
)

func main() {
	// A scale-free network of 200k members, ~1M friendships — the shape
	// the paper's method is designed for.
	fmt.Println("generating a 200k-vertex scale-free network ...")
	g := highway.BarabasiAlbert(200_000, 5, 42)
	fmt.Printf("graph: n=%d m=%d avg.deg=%.1f\n", g.NumVertices(), g.NumEdges(), g.AvgDegree())

	// The paper selects the top-degree vertices as landmarks (Section 6.3).
	landmarks, err := highway.SelectLandmarks(g, 20)
	if err != nil {
		log.Fatal(err)
	}

	// Build the labelling with one pruned BFS per landmark, in parallel
	// (the paper's HL-P). The result is minimal and deterministic.
	start := time.Now()
	ix, err := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("index built in %s: %.1f entries/vertex, %d KB compressed\n",
		time.Since(start).Round(time.Millisecond), st.AvgLabelSize, st.Bytes8/1024)

	// Query: exact distances via upper bound + bounded search.
	sr := ix.NewSearcher()
	queries := highway.RandomPairs(g, 5, 7)
	for _, q := range queries {
		t0 := time.Now()
		d := sr.Distance(q.S, q.T)
		fmt.Printf("d(%6d, %6d) = %d   (%s)\n", q.S, q.T, d, time.Since(t0))
	}

	// Average latency over a paper-sized sample.
	pairs := highway.RandomPairs(g, 100_000, 1)
	t0 := time.Now()
	for _, q := range pairs {
		sr.Distance(q.S, q.T)
	}
	per := time.Since(t0) / time.Duration(len(pairs))
	fmt.Printf("average over %d random queries: %s/query\n", len(pairs), per)
}
