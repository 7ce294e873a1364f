// Benchmarks mirroring the paper's tables and figures, one family per
// artefact (see DESIGN.md's per-experiment index). These run on shrunken
// stand-ins so `go test -bench=. -benchmem` completes in minutes; the full
// harness (cmd/hlbench) regenerates the complete tables at standard size.
package highway_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"highway"
	"highway/internal/bfs"
	"highway/internal/datasets"
	"highway/internal/workload"
)

// benchShrink shrinks the Table 1 stand-ins for benchmark use.
const benchShrink = 4

var (
	fixOnce  sync.Once
	fixGraph *highway.Graph // Skitter stand-in at benchShrink
	fixLM    []int32
	fixPairs []highway.Pair
)

func fixtures(b *testing.B) (*highway.Graph, []int32, []highway.Pair) {
	b.Helper()
	fixOnce.Do(func() {
		d, err := datasets.ByName("Skitter")
		if err != nil {
			panic(err)
		}
		fixGraph = d.Load(benchShrink)
		fixLM, err = highway.SelectLandmarks(fixGraph, 20, highway.ByDegree, 0)
		if err != nil {
			panic(err)
		}
		fixPairs = highway.RandomPairs(fixGraph, 4096, 42)
	})
	return fixGraph, fixLM, fixPairs
}

// --- Table 1 ---------------------------------------------------------------

// BenchmarkTable1Datasets measures stand-in generation + statistics for
// the quick dataset subset (Table 1's rows).
func BenchmarkTable1Datasets(b *testing.B) {
	small := datasets.SmallSet()
	for i := 0; i < b.N; i++ {
		for _, d := range small {
			g := d.Generate(benchShrink * 4)
			st := d.Describe(g)
			if st.N == 0 {
				b.Fatal("empty stand-in")
			}
		}
	}
}

// --- Table 2: construction time --------------------------------------------

func BenchmarkTable2BuildHLP(b *testing.B) {
	g, lm, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildHL(g, lm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2BuildHL(b *testing.B) {
	g, lm, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildHL(g, lm, highway.WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2BuildFD(b *testing.B) {
	g, lm, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := highway.Build(context.Background(), g, "fd", highway.WithLandmarks(lm)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2BuildPLL(b *testing.B) {
	g, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := highway.Build(context.Background(), g, "pll"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2BuildISL(b *testing.B) {
	g, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := highway.Build(context.Background(), g, "isl"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildOracleBFS measures the pooled ground-truth BFS the
// oracle harness and landmark selection run many times per test.
func BenchmarkBuildOracleBFS(b *testing.B) {
	g, _, _ := fixtures(b)
	var dist []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = highway.DistancesFrom(g, int32(i%g.NumVertices()), dist)
	}
}

// --- Table 2: query time ----------------------------------------------------

func BenchmarkTable2QueryHL(b *testing.B) {
	g, lm, pairs := fixtures(b)
	ix, err := buildHL(g, lm)
	if err != nil {
		b.Fatal(err)
	}
	sr := ix.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.Distance(p.S, p.T)
	}
}

func BenchmarkTable2QueryFD(b *testing.B) {
	g, lm, pairs := fixtures(b)
	ix, err := highway.Build(context.Background(), g, "fd", highway.WithLandmarks(lm))
	if err != nil {
		b.Fatal(err)
	}
	sr := ix.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.Distance(p.S, p.T)
	}
}

func BenchmarkTable2QueryPLL(b *testing.B) {
	g, _, pairs := fixtures(b)
	ix, err := highway.Build(context.Background(), g, "pll")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ix.Distance(p.S, p.T)
	}
}

func BenchmarkTable2QueryISL(b *testing.B) {
	g, _, pairs := fixtures(b)
	ix, err := highway.Build(context.Background(), g, "isl")
	if err != nil {
		b.Fatal(err)
	}
	sr := ix.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.Distance(p.S, p.T)
	}
}

func BenchmarkTable2QueryBiBFS(b *testing.B) {
	g, _, pairs := fixtures(b)
	sc := bfs.NewScratch(g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		bfs.BiBFS(g, p.S, p.T, sc)
	}
}

// --- Index serialization ------------------------------------------------------

// BenchmarkIndexWrite measures serialization throughput (format v2, the
// only one written).
func BenchmarkIndexWrite(b *testing.B) {
	g, lm, _ := fixtures(b)
	ix, err := buildHL(g, lm)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := highway.WriteIndex(ix, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexLoad measures deserialization of the benchmark graph's
// index: bulk section reads (compare by MB/s).
func BenchmarkIndexLoad(b *testing.B) {
	g, lm, _ := fixtures(b)
	ix, err := buildHL(g, lm)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := highway.WriteIndex(ix, &buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := highway.ReadIndex(bytes.NewReader(buf.Bytes()), g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: labelling sizes ------------------------------------------------

// BenchmarkTable3Sizes builds every method once and reports the Table 3
// size columns as metrics (bytes).
func BenchmarkTable3Sizes(b *testing.B) {
	g, lm, _ := fixtures(b)
	hl, err := buildHL(g, lm)
	if err != nil {
		b.Fatal(err)
	}
	fdIx, err := highway.Build(context.Background(), g, "fd", highway.WithLandmarks(lm))
	if err != nil {
		b.Fatal(err)
	}
	pllIx, err := highway.Build(context.Background(), g, "pll")
	if err != nil {
		b.Fatal(err)
	}
	islIx, err := highway.Build(context.Background(), g, "isl")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = hl.SizeBytes8() + hl.SizeBytes32() + fdIx.Stats().SizeBytes + pllIx.Stats().SizeBytes + islIx.Stats().SizeBytes
	}
	_ = sink
	b.ReportMetric(float64(hl.SizeBytes8()), "HL8-bytes")
	b.ReportMetric(float64(hl.SizeBytes32()), "HL-bytes")
	b.ReportMetric(float64(fdIx.Stats().SizeBytes), "FD-bytes")
	b.ReportMetric(float64(pllIx.Stats().SizeBytes), "PLL-bytes")
	b.ReportMetric(float64(islIx.Stats().SizeBytes), "ISL-bytes")
}

// --- Figure 1(a): query time vs index size (per-method query benches above
// give the times; this reports the sizes together) -- covered by
// BenchmarkTable3Sizes + BenchmarkTable2Query*.

// BenchmarkFig1a runs one combined build+query pass per method, reporting
// size as a metric, so a single bench line carries both figure axes.
func BenchmarkFig1a(b *testing.B) {
	g, lm, pairs := fixtures(b)
	type method struct {
		name  string
		setup func() (workload.Oracle, int64)
	}
	methods := []method{
		{"HL", func() (workload.Oracle, int64) {
			ix, err := buildHL(g, lm)
			if err != nil {
				b.Fatal(err)
			}
			sr := ix.NewSearcher()
			return workload.OracleFunc(sr.Distance), ix.SizeBytes32()
		}},
		{"FD", func() (workload.Oracle, int64) {
			ix, err := highway.Build(context.Background(), g, "fd", highway.WithLandmarks(lm))
			if err != nil {
				b.Fatal(err)
			}
			sr := ix.NewSearcher()
			return workload.OracleFunc(sr.Distance), ix.Stats().SizeBytes
		}},
		{"PLL", func() (workload.Oracle, int64) {
			ix, err := highway.Build(context.Background(), g, "pll")
			if err != nil {
				b.Fatal(err)
			}
			return workload.OracleFunc(ix.Distance), ix.Stats().SizeBytes
		}},
		{"ISL", func() (workload.Oracle, int64) {
			ix, err := highway.Build(context.Background(), g, "isl")
			if err != nil {
				b.Fatal(err)
			}
			sr := ix.NewSearcher()
			return workload.OracleFunc(sr.Distance), ix.Stats().SizeBytes
		}},
	}
	for _, m := range methods {
		b.Run(m.name, func(b *testing.B) {
			o, size := m.setup()
			b.ReportMetric(float64(size), "index-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				o.Distance(p.S, p.T)
			}
		})
	}
}

// --- Figure 1(b): construction time vs network size --------------------------

func BenchmarkFig1b(b *testing.B) {
	for _, n := range []int{5_000, 20_000, 80_000} {
		g := highway.BarabasiAlbert(n, 5, int64(n))
		lm, err := highway.SelectLandmarks(g, 20, highway.ByDegree, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("HLP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildHL(g, lm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("HL/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildHL(g, lm, highway.WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("FD/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := highway.Build(context.Background(), g, "fd", highway.WithLandmarks(lm)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 6: distance distribution -----------------------------------------

func BenchmarkFig6Distribution(b *testing.B) {
	g, lm, pairs := fixtures(b)
	ix, err := buildHL(g, lm)
	if err != nil {
		b.Fatal(err)
	}
	sr := ix.NewSearcher()
	o := workload.OracleFunc(sr.Distance)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		dist := workload.DistanceDistribution(o, pairs)
		mean = dist.Mean()
	}
	b.ReportMetric(mean, "mean-distance")
}

// --- Figure 7: construction and query time vs #landmarks ----------------------

func BenchmarkFig7BuildHL(b *testing.B) {
	g, _, _ := fixtures(b)
	for _, k := range []int{10, 20, 30, 40, 50} {
		lm, err := highway.SelectLandmarks(g, k, highway.ByDegree, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildHL(g, lm, highway.WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7QueryHL(b *testing.B) {
	g, _, pairs := fixtures(b)
	for _, k := range []int{10, 20, 30, 40, 50} {
		lm, err := highway.SelectLandmarks(g, k, highway.ByDegree, 0)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := buildHL(g, lm)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sr := ix.NewSearcher()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sr.Distance(p.S, p.T)
			}
		})
	}
}

// --- Figure 8: labelling size vs #landmarks -----------------------------------

func BenchmarkFig8Sizes(b *testing.B) {
	g, _, _ := fixtures(b)
	for _, k := range []int{10, 20, 30, 40, 50} {
		lm, err := highway.SelectLandmarks(g, k, highway.ByDegree, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var ix *highway.Index
			for i := 0; i < b.N; i++ {
				ix, err = buildHL(g, lm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.SizeBytes32()), "HL-bytes")
		})
	}
}

// --- Figure 9: pair coverage vs #landmarks ------------------------------------

func BenchmarkFig9Coverage(b *testing.B) {
	g, _, pairs := fixtures(b)
	sample := pairs[:1024]
	for _, k := range []int{10, 20, 30, 40, 50} {
		lm, err := highway.SelectLandmarks(g, k, highway.ByDegree, 0)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := buildHL(g, lm)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sr := ix.NewSearcher()
			var cov float64
			for i := 0; i < b.N; i++ {
				cov = workload.PairCoverage(ix, workload.OracleFunc(sr.Distance), sample)
			}
			b.ReportMetric(cov, "coverage")
		})
	}
}
