package highway_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"

	"highway"
)

// ExampleBuild_hl builds the paper's index over a small explicit graph
// and answers a query. The graph is a 6-cycle with one chord.
func ExampleBuild_hl() {
	g, err := highway.FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4},
	})
	if err != nil {
		panic(err)
	}
	landmarks, _ := highway.SelectLandmarks(g, 2)
	ix, _ := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})
	fmt.Println(ix.Distance(0, 3))
	fmt.Println(ix.Distance(2, 5))
	// Output:
	// 3
	// 3
}

// ExampleNewServer serves an index over the HTTP/JSON API and answers
// one request. Production servers use ListenAndServe; the test uses an
// httptest listener around the same Handler.
func ExampleNewServer() {
	g, _ := highway.FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4},
	})
	landmarks, _ := highway.SelectLandmarks(g, 2)
	ix, _ := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})

	srv := highway.NewServer(ix, highway.ServeConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/distance?s=0&t=3")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Print(string(body))
	// Output:
	// {"s":0,"t":3,"distance":3}
}

// ExampleServer_InsertEdges shows the live-update API: a server built
// with NewLiveServer accepts edge insertions (programmatically here;
// POST /edges over HTTP) and every subsequent read sees them. Passing a
// WAL in LiveConfig would additionally make the writes crash-durable.
func ExampleServer_InsertEdges() {
	g, _ := highway.FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4},
	})
	landmarks, _ := highway.SelectLandmarks(g, 2)
	ix, _ := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})

	srv, _ := highway.NewLiveServer(ix, highway.LiveConfig{})
	defer srv.Close()

	before, _ := srv.Distance(0, 3)
	res, _ := srv.InsertEdges([][2]int32{{0, 3}})
	after, _ := srv.Distance(0, 3)
	fmt.Printf("d(0,3) before=%d after=%d (inserted %d edge at epoch %d)\n",
		before, after, res.Inserted, res.Epoch)
	// Output:
	// d(0,3) before=3 after=1 (inserted 1 edge at epoch 1)
}

// ExampleClient serves an index over the binary wire protocol
// (PROTOCOL.md) on a loopback listener and queries it with the native
// pooled client: one framed round trip per Distance call, one for the
// whole batch. Production servers pass a real address ("hlserve serve
// -binaddr :8081" is this same pairing from the command line).
func ExampleClient() {
	g, _ := highway.FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4},
	})
	landmarks, _ := highway.SelectLandmarks(g, 2)
	ix, _ := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{})
	srv := highway.NewServer(ix, highway.ServeConfig{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()

	cl, err := highway.Dial(ctx, ln.Addr().String(), highway.ClientConfig{})
	if err != nil {
		panic(err)
	}
	d, _ := cl.Distance(ctx, 0, 3)
	ds, _ := cl.DistanceBatch(ctx, [][2]int32{{2, 5}, {1, 4}}, nil)
	fmt.Println(d)
	fmt.Println(ds)
	cl.Close()

	cancel()
	<-done
	// Output:
	// 3
	// [3 1]
}

// ExampleBuild builds the paper's index over a landmark set with
// BuildOptions: Workers sets how many goroutines share the build
// traversal (the index is the same for every value) and Progress sees
// each landmark's pruned BFS finish.
func ExampleBuild() {
	g, _ := highway.FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4},
	})
	landmarks, _ := highway.SelectLandmarks(g, 2)
	ix, err := highway.Build(context.Background(), g, landmarks, highway.BuildOptions{
		Workers:  1,
		Progress: func(done, total int) { fmt.Printf("landmark BFS %d/%d done\n", done, total) },
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: k=%d d(0,3)=%d\n", ix.Stats().Method, ix.NumLandmarks(), ix.Distance(0, 3))
	// Output:
	// landmark BFS 1/2 done
	// landmark BFS 2/2 done
	// hl: k=2 d(0,3)=3
}

// ExampleIndex_UpperBound shows the offline bound versus the exact
// distance on a path where the landmark sits at one end.
func ExampleIndex_UpperBound() {
	g, _ := highway.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	ix, _ := highway.Build(context.Background(), g, []int32{0}, highway.BuildOptions{}) // landmark at the left end
	// The only landmark detour between 1 and 4 goes 1→0→...→4.
	fmt.Println(ix.UpperBound(1, 4))
	fmt.Println(ix.Distance(1, 4))
	// Output:
	// 5
	// 3
}

// ExampleSearcher_Path reconstructs one shortest path. Path lives on
// the concrete highway cover Searcher (Index.Searcher); the
// method-agnostic NewSearcher interface covers Distance and UpperBound
// only.
func ExampleSearcher_Path() {
	g, _ := highway.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	ix, _ := highway.Build(context.Background(), g, []int32{2}, highway.BuildOptions{})
	sr := ix.Searcher()
	fmt.Println(sr.Path(0, 4))
	// Output:
	// [0 1 2 3 4]
}
