package core

import (
	"bytes"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/method"
)

// FuzzLoadIndex: arbitrary bytes must never panic or OOM the loader, for
// either format magic. Successful loads must yield an index whose basic
// operations are safe to call.
func FuzzLoadIndex(f *testing.F) {
	// Seeds: the golden index as v2, both committed v1 files, and the
	// path-600 index, whose 688 overflow records are in v2's section 6;
	// then the last two with their offsets in section 3, and every
	// malformed offsets section TestReadChecksOffsets names.
	seeds := [][]byte{v2Bytes(f, goldenIndex(f))}
	for _, fx := range v1Fixtures(f) {
		seeds = append(seeds, fx.raw)
	}
	path600G, path600Ix := path600(f)
	seeds = append(seeds, v2Bytes(f, path600Ix), legacyV2Fixture(f), legacyV2Bytes(f, path600Ix))
	for _, c := range offsetCases() {
		f.Add(reframe(f, seeds[3], c.edit))
	}
	for _, c := range legacyOffsetCases() {
		f.Add(reframe(f, seeds[5], c.edit))
	}
	for _, good := range seeds {
		f.Add(good)
		f.Add(good[:len(good)/2])
		// Seed header-mangled variants so the fuzzer starts near the
		// interesting validation branches.
		mangled := append([]byte{}, good...)
		for i := 8; i < 24 && i < len(mangled); i++ {
			mangled[i] ^= 0xFF
		}
		f.Add(mangled)
	}
	f.Add([]byte("HWLIDX01"))
	f.Add([]byte("HWLIDX02"))
	f.Add([]byte("garbage"))
	// A file a baseline wrote before their formats were retired: its first
	// section is the method tag, where the reader stops.
	var retired bytes.Buffer
	tag := method.Section{ID: method.SectTag, Payload: []byte("pll")}
	if err := method.WriteContainer(&retired, method.Header{N: 11, K: 2}, []method.Section{tag, {ID: method.SectTag + 1, Payload: []byte{0, 0, 0, 0}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(retired.Bytes())

	g := gen.PaperFigure2()
	overflowG := gen.Path(300) // the graph of the path300.hl1 seed; path600G is the last seed's
	f.Fuzz(func(t *testing.T, data []byte) {
		// Loading must be total: either an error or a usable index.
		ix, err := Read(bytes.NewReader(data), g)
		if err == nil {
			exerciseIndex(ix)
		}
		// More graph sizes exercise the n-mismatch path and the overflow
		// machinery bounds.
		for _, g := range []*graph.Graph{overflowG, path600G} {
			if ix, err := Read(bytes.NewReader(data), g); err == nil {
				exerciseIndex(ix)
			}
		}
	})
}

// exerciseIndex touches the query and accounting paths of a loaded index:
// none of them may panic regardless of the (validated) contents.
func exerciseIndex(ix *Index) {
	_ = ix.Stats()
	n := int32(ix.Graph().NumVertices())
	sr := ix.NewSearcher()
	for s := int32(0); s < n && s < 4; s++ {
		for t := int32(0); t < n && t < 4; t++ {
			_ = sr.Distance(s, t)
			_ = sr.UpperBound(s, t)
		}
	}
	_ = ix.Distance(0, n-1)
	_ = ix.UpperBound(n-1, 0)
}

// FuzzIndexRoundTrip: for generated indexes across graph families and
// sizes, Save→Load must reproduce a deep-equal index.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3))
	f.Add(int64(2), uint8(80), uint8(7))
	f.Add(int64(3), uint8(5), uint8(1))
	f.Add(int64(5), uint8(89), uint8(1)) // the longest path, two landmarks
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8) {
		n := 4 + int(nRaw)%90
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			g = gen.BarabasiAlbert(n, 2, seed)
		case 1:
			g = gen.ErdosRenyi(n, int64(2*n), seed)
		default:
			// Long path: distances overflow the 8-bit disk encoding, so
			// the escape records round-trip too.
			g = gen.Path(280 + n)
		}
		k := 1 + int(kRaw)%8
		if k > g.NumVertices() {
			k = g.NumVertices()
		}
		ix, err := Build(g, g.DegreeOrder()[:k])
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		ix2, got, err := ReadFormat(bytes.NewReader(buf.Bytes()), g)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if got != FormatV2 {
			t.Fatalf("v2 decoded as %v", got)
		}
		if !indexesIdentical(ix, ix2) {
			t.Fatal("round trip not deep-equal")
		}
		// A file with its offsets in section 3 loads as the same index.
		if old, err := Read(bytes.NewReader(legacyV2Bytes(t, ix)), g); err != nil || !indexesIdentical(ix, old) {
			t.Fatalf("section-3 file: not deep-equal, or %v", err)
		}
		for i := range ix.landmarks {
			if ix.landmarks[i] != ix2.landmarks[i] {
				t.Fatal("landmarks differ after round trip")
			}
		}
	})
}
