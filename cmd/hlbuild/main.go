// Command hlbuild constructs a highway cover distance labelling for a
// graph file and writes it next to the graph.
//
// Usage:
//
//	hlbuild -graph web.hwg -k 20 -out web.idx
//	hlbuild -graph edges.txt -k 40 -workers 8 -verify 1000
//	hlbuild -graph web.hwg -k 20 -progress           (log per-landmark BFS completion)
//	hlbuild migrate -graph web.hwg -in old.idx -out web.idx   (an index file storing its rank directory)
//	hlbuild migrate -in web.wal.snap -out web.wal.snap        (a checkpoint, its rank directory stored or not)
//
// After a build, hlbuild reports wall time, worker count and how the
// traversal expanded its levels (pushed top-down vs pulled bottom-up, and
// the edges scanned each way); the build chooses per level by itself.
//
// Index files are written in format v2 (checksummed sections), and a
// server reads no other layout. A file of today's layout that stores its
// rank directory (section 15, or 18), as every writer did before readers
// derived it, is read by every reader as it is; the migrate subcommand
// rewrites it without the directory, which is optional: an index file
// beside -graph, or a checkpoint, told apart by its section table, with no
// -graph. Every older layout is refused in one line naming the `hlbuild
// migrate` of a release up to 38d1fa7, whose output this one reads.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"highway"
	"highway/internal/container"
	"highway/internal/graph"
	"highway/internal/serve"
)

// verifySeed draws the pairs -verify cross-checks, so a run is repeatable.
const verifySeed = 42

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
	// The landmarks are the k highest-degree vertices; a -k above n
	// selects every vertex.
	landmarks, err := highway.SelectLandmarks(g, min(*k, g.NumVertices()))
	if err != nil {
		return err
	}
	opt := highway.BuildOptions{Workers: *workers}
	if *progress {
		opt.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "hlbuild: landmark BFS %d/%d done\n", done, total)
		}
	}
	start := time.Now()
	ix, err := highway.Build(ctx, g, landmarks, opt)
	if err != nil {
		return err
	}
	fmt.Printf("built hl in %s: %s\n", time.Since(start).Round(time.Millisecond), ix.Stats())
	bs := ix.BuildStats()
	tr := bs.Traversal
	fmt.Printf("workers=%d levels=%d (top-down %d, bottom-up %d) edges scanned=%d (top-down %d, bottom-up %d)\n",
		bs.Workers, tr.Levels(), tr.TopDownLevels, tr.BottomUpLevels,
		tr.EdgesScanned(), tr.EdgesTopDown, tr.EdgesBottomUp)

	if *verify > 0 {
		if err := ix.Verify(*verify, verifySeed); err != nil {
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

// runMigrate rewrites an index file or checkpoint that today's readers
// load as today's writer does: without a stored rank directory.
func runMigrate(args []string) error {
	fs := flag.NewFlagSet("hlbuild migrate", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph the index was built on (required for an index file)")
		in        = fs.String("in", "", "file to migrate: an index file or a <wal>.snap checkpoint of today's layout, its rank directory stored or not (required)")
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
	// The table refuses every retired magic. A checkpoint holds the graph's
	// sections beside the labels; an index file needs the graph given.
	head, _ := br.Peek(len(container.Magic) + 44 + 64*16) // the magic, header and a table of 64 rows
	_, rows, err := container.ReadTable(bytes.NewReader(head))
	if err != nil {
		return err
	}
	has := func(id uint32) bool {
		return slices.ContainsFunc(rows, func(r container.Row) bool { return r.ID == id })
	}
	snapshot := has(graph.SectOffsets) && has(graph.SectTargets)
	var g *highway.Graph
	var ix *highway.Index
	kind := "format v2"
	switch {
	case snapshot:
		kind = "snapshot"
		g, ix, err = serve.DecodeSnapshot(br)
	case *graphPath == "":
		return fmt.Errorf("migrate: -graph is required for an index file")
	default:
		if g, err = loadGraph(*graphPath); err == nil {
			ix, err = highway.ReadIndex(br, g)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s (%s): %s\n", *in, kind, g)
	if *verify > 0 {
		if err := ix.Verify(*verify, 1); err != nil {
			return fmt.Errorf("migrate: refusing to rewrite a corrupt index: %w", err)
		}
	}
	if snapshot {
		err = container.SaveFile(dest, true, func(w io.Writer) error { return serve.EncodeSnapshot(w, g, ix) })
	} else {
		err = ix.Save(dest)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", dest)
	return nil
}

// loadGraph reads a graph file, or else a text edge list: a file that
// begins with "HW", as a container and every retired binary layout do and
// no edge list can, reports its own error, not a text parser's.
func loadGraph(path string) (*highway.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if magic, _ := bufio.NewReader(f).Peek(2); string(magic) == "HW" {
		return highway.LoadGraph(path)
	}
	return highway.LoadEdgeList(path)
}
