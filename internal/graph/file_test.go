package graph_test

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
)

// TestReadBinaryRejectsSwappedArrays: a graph file whose arrays are
// overwritten with another graph's of the same n and m — canonical rows,
// so no check of their shape can tell — does not load.
func TestReadBinaryRejectsSwappedArrays(t *testing.T) {
	var a, b bytes.Buffer
	if err := gen.BarabasiAlbert(2000, 5, 1).WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := gen.BarabasiAlbert(2000, 5, 2).WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	_, rows, err := container.ReadTable(bytes.NewReader(a.Bytes()))
	if err != nil || a.Len() != b.Len() {
		t.Fatalf("premise: %v, %d-byte and %d-byte files", err, a.Len(), b.Len())
	}
	payloads := len(container.Magic) + 40 + 4 + 16*len(rows)
	swapped := append(a.Bytes()[:payloads:payloads], b.Bytes()[payloads:]...)
	if bytes.Equal(swapped, b.Bytes()) || bytes.Equal(swapped, a.Bytes()) {
		t.Fatal("premise: the arrays are the same")
	}
	_, err = graph.ReadBinary(bytes.NewReader(swapped))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("file with another graph's arrays: err = %v, want a checksum mismatch", err)
	}
}

// TestFingerprintConcurrent: a graph built in memory works out its
// fingerprint on first use, from any number of goroutines at once, and it
// is the one the checksums of its own file give.
func TestFingerprintConcurrent(t *testing.T) {
	var file bytes.Buffer
	if err := gen.BarabasiAlbert(500, 3, 1).WriteBinary(&file); err != nil {
		t.Fatal(err)
	}
	read, err := graph.ReadBinary(&file)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.BarabasiAlbert(500, 3, 1)
	got := make([]uint32, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 1 {
				g.Sections()
			}
			got[i] = g.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if want := read.Fingerprint(); fp != want {
			t.Errorf("goroutine %d: fingerprint %08x, the file's checksums give %08x", i, fp, want)
		}
	}
}

// TestFingerprintAllocates: the first Fingerprint of a graph built in
// memory checksums its arrays through one small buffer, and does not
// encode them whole: on a graph of 4 MiB of targets it allocates at most
// 128 KiB, and gives the value its file's checksums give.
func TestFingerprintAllocates(t *testing.T) {
	g := gen.BarabasiAlbert(100_000, 6, 1)
	if targets := 4 * 2 * g.NumEdges(); targets < 4<<20 {
		t.Fatalf("premise: %d bytes of targets", targets)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fp := g.Fingerprint()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Fatalf("first Fingerprint allocated %d bytes, want at most 128 KiB", got)
	}
	var file bytes.Buffer
	if err := g.WriteBinary(&file); err != nil {
		t.Fatal(err)
	}
	read, err := graph.ReadBinary(&file)
	if err != nil {
		t.Fatal(err)
	}
	if want := read.Fingerprint(); fp != want {
		t.Fatalf("fingerprint %08x, the file's checksums give %08x", fp, want)
	}
}
