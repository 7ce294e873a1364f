// Command hlgen generates synthetic networks: either one of the paper's
// 12 Table 1 stand-ins by name, or a parameterized graph from a generator
// family. Output is the compact binary graph format (default) or a text
// edge list.
//
// Usage:
//
//	hlgen -dataset Skitter -out skitter.hwg
//	hlgen -family ba -n 100000 -deg 10 -seed 7 -out social.hwg
//	hlgen -family rmat -scale 18 -deg 16 -out web.hwg -text
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"highway"
	"highway/internal/container"
	"highway/internal/datasets"
	"highway/internal/gen"
	"highway/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hlgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hlgen", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "", "Table 1 stand-in name (e.g. Skitter); see -list")
		list    = fs.Bool("list", false, "list the Table 1 stand-in names and exit")
		shrink  = fs.Int("shrink", 1, "shrink divisor for -dataset sizes")
		family  = fs.String("family", "", "generator family: ba | rmat | er | ws")
		n       = fs.Int("n", 100000, "vertex count (ba, er, ws)")
		deg     = fs.Int("deg", 10, "ba, er, ws: average degree (ba attaches deg/2 edges a vertex, ws links deg/2 neighbours a side); rmat: edges drawn a vertex (the edge factor)")
		scale   = fs.Uint("scale", 17, "rmat: log2 of the vertex count")
		beta    = fs.Float64("beta", 0.1, "ws: rewiring probability")
		seed    = fs.Int64("seed", 42, "generator seed")
		lcc     = fs.Bool("lcc", true, "reduce to the largest connected component")
		text    = fs.Bool("text", false, "write a text edge list instead of binary")
		out     = fs.String("out", "", "output path (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, d := range datasets.Registry {
			fmt.Printf("%-12s %-8s paper n=%-5s m=%-5s\n", d.Name, d.Type, d.PaperN, d.PaperM)
		}
		return nil
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	var g *graph.Graph
	switch {
	case *dataset != "":
		d, err := datasets.ByName(*dataset)
		if err != nil {
			return err
		}
		g = d.Generate(*shrink)
	case *family != "":
		// What the generators would refuse with a panic is refused here,
		// in the flags' own words.
		k := *deg / 2
		switch {
		case *n < 0 || *deg < 0:
			return fmt.Errorf("-n and -deg must not be negative (got %d, %d)", *n, *deg)
		case *family == "rmat" && *scale > 30:
			return fmt.Errorf("-scale %d is too large (at most 30)", *scale)
		case *family == "ba" && 2*int64(*n)*int64(k) > math.MaxInt32:
			return fmt.Errorf("-family ba with -n %d -deg %d is too large (at most 2^30 edges)", *n, *deg)
		case *family == "ws" && (*n < 3 || k < 1 || 2*k >= *n):
			return fmt.Errorf("-family ws needs -n of at least 3 and 2 <= -deg < -n (got %d, %d)", *n, *deg)
		case *family == "ws" && !(*beta >= 0 && *beta <= 1):
			return fmt.Errorf("-beta %v is not a probability", *beta)
		}
		switch *family {
		case "ba":
			g = highway.BarabasiAlbert(*n, k, *seed)
		case "rmat":
			g = highway.RMAT(*scale, *deg, *seed)
		case "er":
			g = highway.ErdosRenyi(*n, int64(*n)*int64(*deg)/2, *seed)
		case "ws":
			g = gen.WattsStrogatz(*n, k, *beta, *seed)
		default:
			return fmt.Errorf("unknown family %q (want ba, rmat, er or ws)", *family)
		}
		if *lcc {
			g, _ = highway.LargestComponent(g)
		}
	default:
		return fmt.Errorf("one of -dataset or -family is required")
	}

	write := g.WriteBinary
	if *text {
		write = g.WriteEdgeList
	}
	if err := container.SaveFile(*out, false, write); err != nil {
		return err
	}
	maxDeg, _ := g.MaxDegree()
	fmt.Printf("wrote %s: n=%d m=%d avg.deg=%.2f max.deg=%d |G|=%d bytes\n",
		*out, g.NumVertices(), g.NumEdges(), g.AvgDegree(), maxDeg, g.SizeBytes())
	return nil
}
