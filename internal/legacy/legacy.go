// Package legacy reads the layouts that framed a graph before it became
// container sections 9 and 10: the HWGRAPH1 graph file and the HWLSNAP1
// checkpoint snapshot. No server reads them; `hlbuild migrate`, this
// package's one importer, rewrites them.
package legacy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/graph"
)

// The magics the two layouts begin with.
const (
	GraphMagic    = "HWGRAPH1"
	SnapshotMagic = "HWLSNAP1"
)

// ReadGraph decodes an HWGRAPH1 stream: the magic, n and 2m as uint64,
// then the arrays as sections 9 and 10 encode them, so their decoder
// decodes them. It reads nothing past the targets.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("legacy: reading graph header: %w", err)
	}
	if string(hdr[:8]) != GraphMagic {
		return nil, fmt.Errorf("legacy: bad magic %q (not a %s file)", hdr[:8], GraphMagic)
	}
	n, len2m := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	off, oerr := readArray(r, (n+1)*8) // a lying n or 2m costs what arrives, then fails FromSections
	tgt, terr := readArray(r, len2m*4)
	if err := errors.Join(oerr, terr); err != nil {
		return nil, fmt.Errorf("legacy: reading the arrays: %w", err)
	}
	return graph.FromSections(n, map[uint32]container.Section{graph.SectOffsets: off, graph.SectTargets: tgt})
}

func readArray(r io.Reader, size uint64) (container.Section, error) {
	payload, err := container.ReadN(r, size)
	return container.Section{CRC: container.Checksum(0, payload), Payload: payload}, err
}

// ReadSnapshot decodes an HWLSNAP1 stream: the magic, an HWGRAPH1 graph,
// then the index file of its labelling.
func ReadSnapshot(r io.Reader) (*graph.Graph, *core.Index, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != SnapshotMagic {
		return nil, nil, fmt.Errorf("legacy: not a %s snapshot (magic %q, %v)", SnapshotMagic, magic[:], err)
	}
	g, err := ReadGraph(r)
	if err != nil {
		return nil, nil, err
	}
	ix, err := core.Read(r, g)
	return g, ix, err
}
