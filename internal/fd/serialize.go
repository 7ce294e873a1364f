package fd

import (
	"fmt"
	"io"
	"os"

	"highway/internal/bptree"
	"highway/internal/graph"
	"highway/internal/method"
)

// On-disk layout: the tagged "HWLIDX02" container of internal/method
// with tag "fd". Header: N = vertex count, K = landmark count, Aux1 =
// bit-parallel tree count, Aux2 = overlay edge count (0 when the index
// is purely static; the overlay holds the FULL adjacency after dynamic
// updates, base edges included). Sections:
//
//	33 landmarks [K]uint32
//	34 dist      [K*N]uint32   d(landmark r, v) row-major (int32, -1 unreachable)
//	35 bp        Aux1 trees    bptree encoding (absent when Aux1=0)
//	36 overlay   [Aux2]{u,v uint32}  undirected overlay edges, u < v
const (
	sectLandmarks uint32 = 33
	sectDist      uint32 = 34
	sectBP        uint32 = 35
	sectOverlay   uint32 = 36
)

const tag = "fd"

// Write serializes the index (without the graph) in the tagged v2
// container format. Dynamic state survives the round trip: an index
// that has absorbed InsertEdge calls persists its evolved overlay
// adjacency (its bit-parallel trees were already dropped on the first
// mutation, matching the in-memory contract).
func (ix *Index) Write(w io.Writer) error {
	n := ix.g.NumVertices()
	k := len(ix.landmarks)
	sections := []method.Section{
		{ID: sectLandmarks, Payload: method.AppendI32s(make([]byte, 0, k*4), ix.landmarks)},
	}
	distPayload := make([]byte, 0, k*n*4)
	for _, row := range ix.dist {
		distPayload = method.AppendI32s(distPayload, row)
	}
	sections = append(sections, method.Section{ID: sectDist, Payload: distPayload})
	if len(ix.bp) > 0 {
		sections = append(sections, method.Section{
			ID:      sectBP,
			Payload: bptree.AppendTrees(make([]byte, 0, bptree.EncodedLen(len(ix.bp), n)), ix.bp, n),
		})
	}
	var overlayEdges uint64
	if ix.adj != nil {
		var payload []byte
		for u, nbs := range ix.adj {
			for _, v := range nbs {
				if int32(u) < v {
					payload = method.AppendI32s(payload, []int32{int32(u), v})
					overlayEdges++
				}
			}
		}
		sections = append(sections, method.Section{ID: sectOverlay, Payload: payload})
	}
	h := method.Header{
		Method: tag,
		N:      uint64(n),
		K:      uint32(k),
		Aux1:   uint64(len(ix.bp)),
		Aux2:   overlayEdges,
	}
	return method.WriteContainer(w, h, sections)
}

// Save writes the index to path (see Write).
func (ix *Index) Save(path string) error {
	return method.SaveFile(path, ix.Write)
}

// Read deserializes an index written by Write and attaches it to g,
// which must be the graph the index was built on.
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	n := g.NumVertices()
	h, sections, err := method.ReadContainer(r, tag, func(h method.Header) (map[uint32]uint64, error) {
		if h.N != uint64(n) {
			return nil, fmt.Errorf("fd: index built for n=%d, graph has n=%d", h.N, n)
		}
		if h.K == 0 || uint64(h.K) > h.N {
			return nil, fmt.Errorf("fd: index claims %d landmarks for n=%d", h.K, n)
		}
		if h.Aux1 > uint64(h.K) {
			return nil, fmt.Errorf("fd: implausible bit-parallel tree count %d", h.Aux1)
		}
		if h.Aux2 > h.N*h.N {
			return nil, fmt.Errorf("fd: implausible overlay edge count %d", h.Aux2)
		}
		return map[uint32]uint64{
			sectLandmarks: uint64(h.K) * 4,
			sectDist:      uint64(h.K) * h.N * 4,
			sectBP:        uint64(bptree.EncodedLen(int(h.Aux1), n)),
			sectOverlay:   h.Aux2 * 8,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	k := int(h.K)
	if sections[sectLandmarks] == nil || sections[sectDist] == nil {
		return nil, fmt.Errorf("fd: required section missing")
	}

	ix := &Index{
		g:          g,
		landmarks:  make([]int32, k),
		rankOf:     make([]int32, n),
		isLandmark: make([]bool, n),
		dist:       make([][]int32, k),
	}
	if err := method.DecodeI32s(sections[sectLandmarks], ix.landmarks); err != nil {
		return nil, err
	}
	for i := range ix.rankOf {
		ix.rankOf[i] = -1
	}
	for r, v := range ix.landmarks {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("fd: landmark %d out of range [0,%d)", v, n)
		}
		if ix.rankOf[v] >= 0 {
			return nil, fmt.Errorf("fd: duplicate landmark %d", v)
		}
		ix.rankOf[v] = int32(r)
		ix.isLandmark[v] = true
	}
	flat := make([]int32, k*n)
	if err := method.DecodeI32s(sections[sectDist], flat); err != nil {
		return nil, err
	}
	for r := range ix.dist {
		row := flat[r*n : (r+1)*n]
		for _, d := range row {
			if d < -1 {
				return nil, fmt.Errorf("fd: invalid distance %d in landmark row %d", d, r)
			}
		}
		ix.dist[r] = row
	}
	if nBP := int(h.Aux1); nBP > 0 {
		if sections[sectBP] == nil {
			return nil, fmt.Errorf("fd: header claims %d bit-parallel trees, section missing", nBP)
		}
		ix.bp, err = bptree.DecodeTrees(sections[sectBP], nBP, n)
		if err != nil {
			return nil, err
		}
	}
	if err := ix.dynFromSection(sections[sectOverlay], int(h.Aux2)); err != nil {
		return nil, err
	}
	return ix, nil
}

// dynFromSection reconstructs the mutable adjacency from the overlay
// section (nil when the index was saved in its static state) and freezes
// it as the graph queries run on.
func (ix *Index) dynFromSection(payload []byte, edges int) error {
	if payload == nil {
		if edges != 0 {
			return fmt.Errorf("fd: header claims %d overlay edges, section missing", edges)
		}
		return nil
	}
	flat := make([]int32, 2*edges)
	if err := method.DecodeI32s(payload, flat); err != nil {
		return err
	}
	n := ix.g.NumVertices()
	adj := make([][]int32, n)
	for i := 0; i < edges; i++ {
		u, v := flat[2*i], flat[2*i+1]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u >= v {
			return fmt.Errorf("fd: bad overlay edge {%d,%d}", u, v)
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	g, err := graph.FromAdjacency(adj)
	if err != nil {
		return err
	}
	ix.adj, ix.g = adj, g
	return nil
}

// Load reads an index file written by Save and attaches it to g.
func Load(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, g)
}
