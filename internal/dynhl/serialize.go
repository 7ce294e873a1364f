package dynhl

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"highway/internal/core"
	"highway/internal/graph"
	"highway/internal/method"
)

// On-disk layout: the tagged "HWLIDX02" container of internal/method
// with tag "dynhl". Unlike the other methods, the dynamic labelling
// EMBEDS its graph: the adjacency evolves with every insertion, so an
// index saved after updates would be inconsistent with the base graph
// file on disk. Save freezes the current state (graph + labelling,
// exactly what a from-scratch build on the evolved edge set would
// produce) and stores both:
//
//	33 graph  the frozen evolved graph, graph.WriteBinary encoding
//	34 index  the frozen labelling, core format v2 encoding
//
// Header: N = vertex count, K = landmark count, Aux1/Aux2 = the byte
// lengths of the two sections (the allocation bound for the reader).
// Load verifies the supplied graph's vertex count but attaches the
// index to the embedded evolved graph.
const (
	sectGraph uint32 = 33
	sectIndex uint32 = 34
)

const tag = "dynhl"

// Write serializes the current state (see the layout comment).
func (ix *Index) Write(w io.Writer) error {
	g, frozen, err := ix.Freeze()
	if err != nil {
		return err
	}
	var gbuf, ibuf bytes.Buffer
	if err := g.WriteBinary(&gbuf); err != nil {
		return err
	}
	if err := frozen.WriteFormat(&ibuf, core.FormatV2); err != nil {
		return err
	}
	h := method.Header{
		Method: tag,
		N:      uint64(len(ix.adj)),
		K:      uint32(frozen.NumLandmarks()),
		Aux1:   uint64(gbuf.Len()),
		Aux2:   uint64(ibuf.Len()),
	}
	return method.WriteContainer(w, h, []method.Section{
		{ID: sectGraph, Payload: gbuf.Bytes()},
		{ID: sectIndex, Payload: ibuf.Bytes()},
	})
}

// Save writes the index to path (see Write).
func (ix *Index) Save(path string) error {
	return method.SaveFile(path, ix.Write)
}

// Read deserializes an index written by Write. g must have the same
// vertex count the index was built on; the returned index runs on the
// embedded evolved graph (which equals g when the index was saved
// without post-build insertions).
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	n := g.NumVertices()
	h, sections, err := method.ReadContainer(r, tag, func(h method.Header) (map[uint32]uint64, error) {
		if h.N != uint64(n) {
			return nil, fmt.Errorf("dynhl: index built for n=%d, graph has n=%d", h.N, n)
		}
		if h.K == 0 || uint64(h.K) > h.N || h.K > core.MaxLandmarks {
			return nil, fmt.Errorf("dynhl: index claims %d landmarks", h.K)
		}
		// The embedded payload lengths come from the header; bound them
		// by what a graph/labelling over n vertices can legitimately
		// need (offsets + a full adjacency; labels + highway + table).
		maxGraph := 64 + (h.N+1)*8 + h.N*h.N*4
		maxIndex := 4096 + (h.N+1)*8 + h.N*uint64(h.K)*16 + uint64(h.K)*uint64(h.K)*4
		if h.Aux1 > maxGraph || h.Aux2 > maxIndex {
			return nil, fmt.Errorf("dynhl: implausible embedded payload lengths %d/%d", h.Aux1, h.Aux2)
		}
		return map[uint32]uint64{
			sectGraph: h.Aux1,
			sectIndex: h.Aux2,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if sections[sectGraph] == nil || sections[sectIndex] == nil {
		return nil, fmt.Errorf("dynhl: required section missing")
	}
	if uint64(len(sections[sectGraph])) != h.Aux1 || uint64(len(sections[sectIndex])) != h.Aux2 {
		return nil, fmt.Errorf("dynhl: section lengths disagree with header")
	}
	eg, err := graph.ReadBinary(bytes.NewReader(sections[sectGraph]))
	if err != nil {
		return nil, fmt.Errorf("dynhl: embedded graph: %w", err)
	}
	if eg.NumVertices() != n {
		return nil, fmt.Errorf("dynhl: embedded graph has n=%d, index claims %d", eg.NumVertices(), n)
	}
	frozen, err := core.Read(bytes.NewReader(sections[sectIndex]), eg)
	if err != nil {
		return nil, fmt.Errorf("dynhl: embedded index: %w", err)
	}
	return FromCore(frozen)
}

// Load reads an index file written by Save (see Read).
func Load(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, g)
}
