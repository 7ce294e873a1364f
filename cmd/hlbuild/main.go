// Command hlbuild constructs a highway cover distance labelling for a
// graph file and writes it next to the graph.
//
// Usage:
//
//	hlbuild -graph web.hwg -k 20 -out web.idx
//	hlbuild -graph edges.txt -k 40 -strategy degree -workers 8 -verify 1000
//	hlbuild -graph web.hwg -k 20 -progress           (log per-landmark BFS completion)
//	hlbuild migrate -graph web.hwg -in old.idx -out web.idx   (an index file of a retired layout)
//	hlbuild migrate -in old.hwg -out web.hwg                  (a graph file, or a <wal>.snap checkpoint)
//
// After a build, hlbuild reports wall time, worker count and how the
// traversal expanded its levels (pushed top-down vs pulled bottom-up, and
// the edges scanned each way); the build chooses per level by itself.
//
// Index files are written in format v2 (checksummed sections), and a
// server reads no other layout. The migrate subcommand rewrites what it
// refuses as today's file: an index file of a retired layout (v1, v2 with
// 64-bit offsets, v2 without the graph's fingerprint), accepted only if it
// holds exactly what a fresh build of its landmarks on -graph holds, which
// costs one build; and a graph file or checkpoint of a layout no server
// reads any more, told apart by its first bytes, with no -graph.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"highway"
	"highway/internal/container"
	"highway/internal/legacy"
	"highway/internal/serve"
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

// runMigrate rewrites an index file of any layout as today's, and a legacy
// graph file or snapshot, told by its first bytes, as today's.
func runMigrate(args []string) error {
	fs := flag.NewFlagSet("hlbuild migrate", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph the index was built on (required for an index file)")
		in        = fs.String("in", "", "file to migrate: an index file of any layout, or a legacy graph file or <wal>.snap snapshot (required)")
		out       = fs.String("out", "", "output path (default: input path + .v2)")
		verify    = fs.Int("verify", 100, "cross-check this many random pairs against BFS before writing an index or snapshot (0 = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("migrate: -in is required")
	}
	dest := *out
	if dest == "" {
		dest = *in + ".v2"
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var g *highway.Graph
	var ix *highway.Index
	save := func() error { return ix.Save(dest) }
	magic, _ := br.Peek(8)
	kind := string(magic)
	switch kind {
	case legacy.GraphMagic:
		g, err = legacy.ReadGraph(br)
		save = func() error { return g.SaveBinary(dest) }
	case legacy.SnapshotMagic:
		g, ix, err = legacy.ReadSnapshot(br)
		save = func() error {
			return container.SaveFile(dest, true, func(w io.Writer) error { return serve.EncodeSnapshot(w, g, ix) })
		}
	default:
		if *graphPath == "" {
			return fmt.Errorf("migrate: -graph is required for an index file")
		}
		if g, err = loadGraph(*graphPath); err != nil {
			break
		}
		if kind = legacy.IndexLayout(br); kind != "" {
			ix, err = legacy.ReadIndex(br, g)
		} else {
			kind = "format v2"
			ix, err = highway.ReadIndex(br, g)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s (%s): %s\n", *in, kind, g)
	if ix != nil && *verify > 0 {
		if err := ix.Verify(*verify, 1); err != nil {
			return fmt.Errorf("migrate: refusing to rewrite a corrupt index: %w", err)
		}
	}
	if err := save(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", dest)
	return nil
}

// loadGraph reads a graph file, or else a text edge list: a file that
// begins as a graph file does, today's or a legacy one, reports its own
// error, not a text parser's.
func loadGraph(path string) (*highway.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic, _ := bufio.NewReader(f).Peek(8) // a shorter file is no graph file
	if m := string(magic); m == container.Magic || m == legacy.GraphMagic {
		return highway.LoadGraph(path)
	}
	return highway.LoadEdgeList(path)
}
