// Command hlquery answers exact distance queries against a prebuilt
// index, in one of three modes:
//
//   - one-shot: hlquery -graph g.hwg -index g.hwg.idx -s 12 -t 34
//   - REPL: hlquery -graph g.hwg -index g.hwg.idx  (reads "s t" lines from stdin)
//   - HTTP: hlquery -graph g.hwg -index g.hwg.idx -serve :8080
//     then GET /distance?s=12&t=34 returns {"s":12,"t":34,"distance":3}.
//
// The -serve mode is the same serving subsystem as hlserve (batch
// endpoint, /stats counters, /healthz, graceful shutdown); hlserve adds
// the offline batch/load pipelines.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"highway"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hlquery:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hlquery", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "binary graph file (required)")
		indexPath = fs.String("index", "", "index file (default: graph path + .idx)")
		s         = fs.Int("s", -1, "one-shot: source vertex")
		t         = fs.Int("t", -1, "one-shot: target vertex")
		serve     = fs.String("serve", "", "HTTP listen address (e.g. :8080)")
		stats     = fs.Bool("stats", false, "print index statistics, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := highway.LoadGraph(*graphPath)
	if err != nil {
		return err
	}
	ip := *indexPath
	if ip == "" {
		ip = *graphPath + ".idx"
	}
	ix, err := highway.LoadIndex(ip, g)
	if err != nil {
		return err
	}

	switch {
	case *stats:
		st := ix.Stats()
		fmt.Printf("index: %s\nmethod: %s\nstats: %s\n", ip, st.Method, st)
		// Capability discovery: which optional execution surfaces the
		// searchers offer (vectorized batch, source-to-many) — the same
		// probe the serving layer uses.
		fmt.Printf("capabilities: %s\n", highway.IndexCapabilities(ix))
		fmt.Printf("memory: %d bytes\n", ix.ActualBytes())
		return nil
	case *s >= 0 && *t >= 0:
		if err := checkVertex(g, *s); err != nil {
			return err
		}
		if err := checkVertex(g, *t); err != nil {
			return err
		}
		return oneShot(ix, int32(*s), int32(*t))
	case *serve != "":
		return serveHTTP(ix, *serve)
	default:
		return repl(ix, g)
	}
}

// checkVertex validates an int vertex id before it is narrowed to
// int32: ids beyond int32 must be rejected, not silently wrapped.
func checkVertex(g *highway.Graph, v int) error {
	if v < 0 || v > math.MaxInt32 {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, g.NumVertices())
	}
	return g.CheckVertex(int32(v))
}

func oneShot(ix *highway.Index, s, t int32) error {
	start := time.Now()
	d := ix.Distance(s, t)
	fmt.Printf("d(%d,%d) = %d  (%s)\n", s, t, d, time.Since(start))
	return nil
}

func repl(ix *highway.Index, g *highway.Graph) error {
	sr := ix.NewSearcher()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("enter queries as: s t   (EOF to quit)")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			fmt.Println("want two vertex ids")
			continue
		}
		s, err1 := strconv.Atoi(fields[0])
		t, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil ||
			checkVertex(g, s) != nil || checkVertex(g, t) != nil {
			fmt.Printf("bad query %q\n", sc.Text())
			continue
		}
		start := time.Now()
		d := sr.Distance(int32(s), int32(t))
		fmt.Printf("%d  (%s)\n", d, time.Since(start))
	}
	return sc.Err()
}

// serveHTTP delegates to the shared serving subsystem so hlquery -serve
// and hlserve expose one API instead of two drifting ones.
func serveHTTP(ix *highway.Index, addr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving on %s (GET /distance?s=&t=, POST /distance/batch, GET /stats, GET /healthz)\n", addr)
	return highway.NewServer(ix, highway.ServeConfig{}).ListenAndServe(ctx, addr)
}
