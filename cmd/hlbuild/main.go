// Command hlbuild constructs a highway cover distance labelling for a
// graph file and writes it next to the graph.
//
// Usage:
//
//	hlbuild -graph web.hwg -k 20 -out web.idx
//	hlbuild -graph edges.txt -k 40 -strategy degree -workers 8 -verify 1000
//	hlbuild -graph web.hwg -k 20 -progress           (log per-landmark BFS completion)
//	hlbuild migrate -graph web.hwg -in old.idx -out web.idx   (v1, or v2 with 64-bit offsets → v2)
//
// After a build, hlbuild reports wall time, worker count and how the
// traversal expanded its levels (pushed top-down vs pulled bottom-up, and
// the edges scanned each way); the build chooses per level by itself.
//
// Index files are written in format v2 (checksummed sections). The
// migrate subcommand rewrites a legacy v1 file, or a v2 file from before
// the label offsets shrank to sections 7 and 8 (`hlquery -stats` says
// "64-bit offsets"), both of which stay readable but are no longer
// written, as today's v2, verifying it against its graph on the way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"highway"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hlbuild:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "migrate" {
		return runMigrate(args[1:])
	}
	fs := flag.NewFlagSet("hlbuild", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph file: binary (.hwg) or text edge list (required)")
		k         = fs.Int("k", 20, "number of landmarks")
		strategy  = fs.String("strategy", "degree", "landmark strategy: degree | random | closeness | degree-spread")
		seed      = fs.Int64("seed", 42, "seed for randomized strategies")
		workers   = fs.Int("workers", 0, "goroutines sharing each level of the build traversal (0 = all cores, 1 = one); the index is the same for every value")
		out       = fs.String("out", "", "index output path (default: graph path + .idx)")
		verify    = fs.Int("verify", 0, "cross-check this many random pairs against BFS after building")
		timeout   = fs.Duration("timeout", 0, "abort construction after this duration (0 = none)")
		progress  = fs.Bool("progress", false, "log one line per completed landmark BFS to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if *k <= 0 {
		return fmt.Errorf("-k must be positive, got %d", *k)
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []highway.BuildOption{
		highway.WithLandmarkCount(*k),
		highway.WithStrategy(highway.LandmarkStrategy(*strategy)),
		highway.WithSeed(*seed),
		highway.WithWorkers(*workers),
	}
	if *progress {
		opts = append(opts, highway.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "hlbuild: landmark BFS %d/%d done\n", done, total)
		}))
	}
	start := time.Now()
	built, err := highway.Build(ctx, g, "hl", opts...)
	if err != nil {
		return err
	}
	ix := built.(*highway.Index)
	fmt.Printf("built hl in %s: %s\n", time.Since(start).Round(time.Millisecond), ix.Stats())
	bs := ix.BuildStats()
	tr := bs.Traversal
	fmt.Printf("workers=%d levels=%d (top-down %d, bottom-up %d) edges scanned=%d (top-down %d, bottom-up %d)\n",
		bs.Workers, tr.Levels(), tr.TopDownLevels, tr.BottomUpLevels,
		tr.EdgesScanned(), tr.EdgesTopDown, tr.EdgesBottomUp)

	if *verify > 0 {
		if err := highway.VerifyIndex(g, ix, *verify, *seed); err != nil {
			return err
		}
		fmt.Printf("verified %d random pairs against BFS\n", *verify)
	}

	dest := *out
	if dest == "" {
		dest = *graphPath + ".idx"
	}
	if err := ix.Save(dest); err != nil {
		return err
	}
	fmt.Printf("wrote %s (format v2)\n", dest)
	return nil
}

// runMigrate rewrites an index file (v1, or v2 of any age) as today's v2.
func runMigrate(args []string) error {
	fs := flag.NewFlagSet("hlbuild migrate", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph the index was built on (required)")
		in        = fs.String("in", "", "index file to migrate: a legacy v1 file, or v2 (one with 64-bit offsets is rewritten with 16-bit ones) (required)")
		out       = fs.String("out", "", "output path of the v2 file (default: input path + .v2)")
		verify    = fs.Int("verify", 100, "cross-check this many random pairs against BFS before writing (0 = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *in == "" {
		return fmt.Errorf("migrate: -graph and -in are required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	ix, from, err := highway.LoadIndexFormat(*in, g)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s (format %s): %s\n", *in, from, ix.Stats())
	if *verify > 0 {
		if err := ix.Verify(*verify, 1); err != nil {
			return fmt.Errorf("migrate: refusing to rewrite a corrupt index: %w", err)
		}
	}
	dest := *out
	if dest == "" {
		dest = *in + ".v2"
	}
	if err := ix.Save(dest); err != nil {
		return err
	}
	fmt.Printf("wrote %s (format v2)\n", dest)
	return nil
}

// loadGraph auto-detects the binary format by extension, falling back to
// text parsing.
func loadGraph(path string) (*highway.Graph, error) {
	if strings.HasSuffix(path, ".hwg") || strings.HasSuffix(path, ".bin") {
		return highway.LoadGraph(path)
	}
	if g, err := highway.LoadGraph(path); err == nil {
		return g, nil
	}
	return highway.LoadEdgeList(path)
}
