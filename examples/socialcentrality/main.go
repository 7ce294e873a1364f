// Social-network centrality: the paper's introduction motivates distance
// oracles with social network analysis, where "distance is used as a core
// measure in many problems such as centrality", requiring distances for a
// large number of vertex pairs.
//
// This example estimates closeness centrality for candidate influencers
// over a 100k-member network by firing hundreds of thousands of exact
// distance queries through the highway cover labelling — work that would
// take hours with per-pair BFS.
//
//	go run ./examples/socialcentrality
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
	fmt.Println("generating a 100k-member social network ...")
	g := highway.BarabasiAlbert(100_000, 6, 2024)
	landmarks, err := highway.SelectLandmarks(g, 30)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	ix, err := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index ready in %s\n", time.Since(start).Round(time.Millisecond))

	// Candidates: 25 random members plus 5 hubs. Closeness is estimated
	// against a fixed random sample of the population (standard sampling
	// estimator: n_samples / Σ d(c, sample)).
	rng := rand.New(rand.NewSource(9))
	candidates := map[int32]bool{}
	for len(candidates) < 25 {
		candidates[int32(rng.Intn(g.NumVertices()))] = true
	}
	for _, hub := range landmarks[:5] {
		candidates[hub] = true
	}
	sample := make([]int32, 4000)
	for i := range sample {
		sample[i] = int32(rng.Intn(g.NumVertices()))
	}

	type scored struct {
		v         int32
		closeness float64
	}
	var results []scored
	sr := ix.NewSearcher()
	queries := 0
	start = time.Now()
	for c := range candidates {
		var sum int64
		for _, s := range sample {
			if d := sr.Distance(c, s); d > 0 {
				sum += int64(d)
			}
			queries++
		}
		results = append(results, scored{v: c, closeness: float64(len(sample)) / float64(sum)})
	}
	elapsed := time.Since(start)
	sort.Slice(results, func(i, j int) bool { return results[i].closeness > results[j].closeness })

	fmt.Printf("ranked %d candidates with %d exact distance queries in %s (%.1f µs/query)\n",
		len(results), queries, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(queries))
	fmt.Println("top 5 by closeness centrality:")
	for i := 0; i < 5 && i < len(results); i++ {
		tag := ""
		if g.Degree(results[i].v) > 100 {
			tag = " (hub)"
		}
		fmt.Printf("  #%d vertex %6d  closeness %.4f  degree %d%s\n",
			i+1, results[i].v, results[i].closeness, g.Degree(results[i].v), tag)
	}
}
