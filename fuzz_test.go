package highway_test

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"highway"
)

// FuzzReadIndexAny holds the one index reader, ReadIndex, to its contract
// on whatever file any method's name is attached to: either a usable
// highway cover index or a one-line error, never a panic or a runaway
// allocation. Seeds are, per method in testMethods order, the file it
// is saved as — hl's own, and for every other method the method tag its
// retired format began with, which must fail naming the method — then
// the retired dynhl format, which began with its tag too, and the two
// magics.
func FuzzReadIndexAny(f *testing.F) {
	g := highway.BarabasiAlbert(60, 2, 3)
	addRetired := func(name string) {
		file := retiredIndexFile(f, name, g.NumVertices())
		_, err := highway.ReadIndex(bytes.NewReader(file), g)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			f.Fatalf("%s file: err = %v, want one naming the method", name, err)
		}
		f.Add(file)
	}
	for _, m := range testMethods {
		if m.name != "hl" {
			addRetired(m.name)
			continue
		}
		ix, err := highway.Build(context.Background(), g, testLandmarks(f, g, 4), highway.BuildOptions{})
		if err != nil {
			f.Fatal(err)
		}
		var file bytes.Buffer
		if err := ix.Write(&file); err != nil {
			f.Fatal(err)
		}
		f.Add(file.Bytes())
	}
	addRetired("dynhl")
	f.Add([]byte("HWLIDX01"))
	f.Add([]byte("HWLIDX02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := highway.ReadIndex(bytes.NewReader(data), g)
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error spans lines: %q", err)
			}
			return
		}
		// A successfully decoded index must answer queries without
		// panicking.
		_ = ix.Distance(0, int32(g.NumVertices()-1))
		_ = ix.UpperBound(1, 2)
		_ = ix.Stats()
	})
}
