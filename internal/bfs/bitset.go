package bfs

// Bitset is a fixed-capacity bitmap over vertex ids: the unvisited set
// of the single-source engine, which a bottom-up level walks a word — 64
// vertices — at a time.
type Bitset []uint64

// NewBitset returns a Bitset able to hold vertex ids in [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// grown returns b if it already holds n vertices, else a fresh zeroed
// Bitset that does.
func (b Bitset) grown(n int) Bitset {
	if len(b)*64 >= n {
		return b
	}
	return NewBitset(n)
}

// Unset clears vertex i.
func (b Bitset) Unset(i int32) { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

// FillOnes marks every vertex in [0, n) and clears any slack bits at or
// beyond n, so word-level iteration never yields a phantom vertex. It is
// how the unvisited set of a bottom-up search is initialized: scanning
// "all vertices not yet visited" then skips fully-visited regions 64
// vertices at a time.
func (b Bitset) FillOnes(n int) {
	full := n >> 6
	for i := 0; i < full && i < len(b); i++ {
		b[i] = ^uint64(0)
	}
	for i := full; i < len(b); i++ {
		b[i] = 0
	}
	if rem := n & 63; rem != 0 && full < len(b) {
		b[full] = 1<<rem - 1
	}
}
