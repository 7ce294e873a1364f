// Command hlserve serves exact distance queries from a prebuilt highway
// cover index, as a concurrent HTTP/JSON API, a binary wire protocol
// (PROTOCOL.md) for native clients, or a high-throughput stdin/stdout
// batch pipeline. The server is live: it accepts edge insertions (POST
// /edges, or Insert frames on the binary listener) while serving reads
// lock-free, optionally journalling them to a write-ahead edge log that
// background checkpoints keep short (see the "Live updates" section of
// the README and DESIGN.md).
//
// Usage:
//
//	hlserve serve -graph g.hwg -addr :8080       # live HTTP API until SIGINT
//	hlserve serve -graph g.hwg -binaddr :8081    # ... plus the binary protocol
//	hlserve serve -graph g.hwg -wal edges.wal    # ... with durable updates
//	hlserve route -primary p:8081 -followers a:8081,b:8081  # cluster router: each read goes to one follower
//	hlserve batch -graph g.hwg < pairs.txt       # one distance per line, input order
//	hlserve batch -graph g.hwg </dev/null        # the index's stats line, no queries
//	hlserve serve -graph g.hwg -read-budget 64   # bounded in-flight admission (shed with 429/Overloaded)
//	hlserve genpairs -graph g.hwg -n 100000      # emit "s t" lines for batch mode
//	hlserve help [command]
//
// Build the graph and index first with hlbuild. serve, batch and
// genpairs take -graph (binary graph file); serve and batch also take
// -index (default: graph path + .idx), a highway cover index file as
// hlbuild writes it (files of a retired layout name hlbuild migrate).
// batch prints one stderr line once the index loads — its statistics
// and in-memory size (memory=<bytes>B) — and one more with the pair
// count and throughput when stdin ends; stdout carries distances only.
// With -wal, serve prefers the snapshot a previous run's checkpoint
// persisted next to the log, then replays the log, so restarts lose
// nothing that was acknowledged. Load is measured by the benchmark
// harness (go run -C benchmark .; see benchmark/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"highway"
	"highway/internal/cluster"
	"highway/internal/serve"
	"highway/internal/workload"
)

// commands is the self-documenting dispatch table printed by help.
var commands = []struct {
	name, summary string
	run           func(args []string, stdin io.Reader, stdout, stderr io.Writer) error
}{
	{"serve", "serve the live HTTP/JSON API (GET /distance, POST /distance/batch, POST /edges, /stats, /healthz) and, with -binaddr, the binary wire protocol; -replicate ships the WAL to followers, -follower receives it", runServe},
	{"route", "run the cluster router: each read goes to one health-checked follower (least in flight, failing over), writes are forwarded to the primary, both protocols", runRoute},
	{"batch", `answer "s t" lines from stdin, one distance per line on stdout, in input order`, runBatch},
	{"genpairs", `emit "s t" query lines from the workload generator (feed for batch)`, runGenpairs},
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hlserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stdout)
		return fmt.Errorf("no command given")
	}
	name := args[0]
	if name == "help" || name == "-h" || name == "--help" {
		usage(stdout)
		return nil
	}
	for _, c := range commands {
		if c.name == name {
			return c.run(args[1:], stdin, stdout, stderr)
		}
	}
	usage(stdout)
	return fmt.Errorf("unknown command %q", name)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "hlserve — concurrent exact distance serving (highway cover labelling, EDBT 2019)")
	fmt.Fprintln(w, "\nAvailable commands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun \"hlserve <command> -h\" for the command's flags.")
}

// indexFlags declares the flags every command shares and returns a
// resolver for the graph/index paths plus the loader of the index they
// name.
func indexFlags(fs *flag.FlagSet) (paths func() (graphPath, indexPath string, err error), load func() (*highway.Index, error)) {
	graphPath := fs.String("graph", "", "binary graph file (required; build with hlbuild)")
	indexPath := fs.String("index", "", "index file (default: graph path + .idx)")
	paths = func() (string, string, error) {
		if *graphPath == "" {
			return "", "", fmt.Errorf("-graph is required")
		}
		ip := *indexPath
		if ip == "" {
			ip = *graphPath + ".idx"
		}
		return *graphPath, ip, nil
	}
	load = func() (*highway.Index, error) {
		gp, ip, err := paths()
		if err != nil {
			return nil, err
		}
		g, err := highway.LoadGraph(gp)
		if err != nil {
			return nil, err
		}
		return highway.LoadIndex(ip, g)
	}
	return paths, load
}

func runServe(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve serve", flag.ContinueOnError)
	paths, load := indexFlags(fs)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	binAddr := fs.String("binaddr", "", "binary wire protocol listen address (see PROTOCOL.md; empty = HTTP only)")
	maxBatch := fs.Int("maxbatch", 0, "max pairs/edges per batch request (0 = default)")
	walPath := fs.String("wal", "", "write-ahead edge log for durable updates (replayed on startup; empty = in-memory updates only)")
	rebuildTh := fs.Int("rebuild-threshold", 0, "log records that trigger a checkpoint; 0 = default 8192, <0 = never; ignored without -wal")
	readonly := fs.Bool("readonly", false, "serve the index frozen, without the update API")
	readBudget := fs.Int("read-budget", 0, "admission budget for in-flight read work, in cost units of 1 + pairs/1024 (0 = default, <0 = unlimited); over-budget requests are shed with 429/Overloaded")
	writeBudget := fs.Int("write-budget", 0, "admission budget for in-flight insert work, same units as -read-budget (0 = default, <0 = unlimited)")
	replicate := fs.String("replicate", "", "comma-separated follower binary addresses to ship the WAL to (primary role; requires -wal)")
	follower := fs.Bool("follower", false, "run as a replication follower: bootstrap from the primary's snapshot stream, serve reads (no -graph needed; requires -binaddr for the replication frames)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follower {
		return runFollower(*addr, *binAddr, serve.Config{MaxBatch: *maxBatch, ReadBudget: *readBudget, WriteBudget: *writeBudget}, stdout)
	}
	if *readonly && *walPath != "" {
		// A frozen server cannot replay or append the log; refusing
		// beats silently serving state that is missing acknowledged
		// edges.
		return fmt.Errorf("-readonly and -wal are mutually exclusive")
	}
	if *replicate != "" && *walPath == "" {
		// The generation file fencing rests on lives next to the WAL,
		// and a primary whose acked writes are not durable cannot
		// promise followers anything across a restart.
		return fmt.Errorf("-replicate requires -wal (the generation file lives next to the log)")
	}
	cfg := serve.LiveConfig{
		Config:           serve.Config{MaxBatch: *maxBatch, ReadBudget: *readBudget, WriteBudget: *writeBudget},
		RebuildThreshold: *rebuildTh,
	}
	var shipper *cluster.Shipper
	if *replicate != "" {
		gen, err := cluster.NextGeneration(*walPath + ".gen")
		if err != nil {
			return err
		}
		cfg.EpochBase = cluster.EpochBase(gen)
		shipper = cluster.NewShipper(cluster.ShipperConfig{
			Followers: strings.Split(*replicate, ","),
		})
		cfg.OnCommit = shipper.OnCommit
		fmt.Fprintf(stdout, "hlserve: primary generation %d, replicating to %s\n", gen, *replicate)
	}

	var srv *serve.Server
	if *walPath != "" {
		gp, ip, err := paths()
		if err != nil {
			return err
		}
		if srv, err = serve.LoadLive(gp, ip, *walPath, cfg); err != nil {
			return err
		}
	} else {
		ix, err := load()
		if err != nil {
			return err
		}
		if *readonly {
			srv = serve.New(ix, cfg.Config)
		} else if srv, err = serve.NewLive(ix, cfg); err != nil {
			return err
		}
	}
	defer srv.Close()
	if shipper != nil {
		if srv.LiveStats() == nil {
			return fmt.Errorf("-replicate needs a live (writable) server")
		}
		shipper.Start(srv)
		defer shipper.Close()
		srv.SetReplicationStats(shipper.Stats)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "hlserve: %s\n", srv.Index().Stats())
	if st := srv.LiveStats(); st != nil {
		mode := "in-memory only"
		if st.WALEnabled {
			mode = fmt.Sprintf("wal %s (%d records replayed)", *walPath, st.WALLen)
		}
		fmt.Fprintf(stdout, "hlserve: live updates enabled, %s\n", mode)
	}
	fmt.Fprintf(stdout, "hlserve: listening on %s (GET /distance?s=&t=, POST /distance/batch, POST /edges, GET /stats, GET /healthz)\n", *addr)
	if *binAddr != "" {
		// Dual-listener mode: HTTP and the binary protocol serve the same
		// snapshots, searcher pools and metrics.
		fmt.Fprintf(stdout, "hlserve: binary protocol listening on %s (PROTOCOL.md; native client: highway.Dial)\n", *binAddr)
	}
	return srv.ListenAndServeBoth(ctx, *addr, *binAddr)
}

// runFollower serves the replication-follower role: an initially-empty
// server whose state arrives over the binary listener as a snapshot
// stream plus per-batch appends. /readyz answers 503 until the first
// snapshot installs.
func runFollower(addr, binAddr string, cfg serve.Config, stdout io.Writer) error {
	if binAddr == "" {
		return fmt.Errorf("-follower requires -binaddr (replication frames arrive on the binary listener)")
	}
	f, err := cluster.NewFollower(cfg)
	if err != nil {
		return err
	}
	srv := f.Server()
	defer srv.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "hlserve: follower awaiting snapshot bootstrap; HTTP on %s, binary (replication + reads) on %s\n", addr, binAddr)
	return srv.ListenAndServeBoth(ctx, addr, binAddr)
}

// runRoute serves the router role: no local state, reads balanced over
// the followers, writes forwarded to the primary.
func runRoute(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve route", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	binAddr := fs.String("binaddr", "", "binary wire protocol listen address (empty = HTTP only)")
	primary := fs.String("primary", "", "primary's binary address for forwarded writes (empty = read-only cluster)")
	followers := fs.String("followers", "", "comma-separated follower binary addresses; every one is a full replica and a read goes to exactly one of them")
	maxBatch := fs.Int("maxbatch", 0, "max pairs per batch request (0 = default)")
	healthMs := fs.Int("health-interval", 0, "member health-check interval in milliseconds (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *followers == "" {
		return fmt.Errorf("route needs -followers")
	}
	members := strings.Split(*followers, ",")
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Primary:        *primary,
		Shards:         [][]string{members},
		MaxBatch:       *maxBatch,
		HealthInterval: time.Duration(*healthMs) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "hlserve: routing %d follower(s), primary %q; HTTP on %s\n", len(members), *primary, *addr)
	if *binAddr != "" {
		fmt.Fprintf(stdout, "hlserve: binary protocol listening on %s\n", *binAddr)
	}
	return rt.ListenAndServeBoth(ctx, *addr, *binAddr)
}

func runBatch(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hlserve batch", flag.ContinueOnError)
	_, load := indexFlags(fs)
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ix, err := load()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "hlserve: %s memory=%dB\n", ix.Stats(), ix.ActualBytes())
	stats, err := serve.New(ix, serve.Config{}).RunBatch(stdin, stdout, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "hlserve:", stats)
	return nil
}

func runGenpairs(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve genpairs", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "binary graph file (required)")
	n := fs.Int("n", 100_000, "pairs to emit")
	seed := fs.Int64("seed", 42, "workload seed")
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
	return workload.WritePairs(stdout, g, *n, *seed)
}
