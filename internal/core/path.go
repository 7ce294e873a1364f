package core

// Path materializes one shortest path between s and t as a vertex
// sequence [s, ..., t], or nil if s and t are disconnected. For s == t it
// returns [s].
//
// The oracle stores distances, not parent pointers, so the path is
// reconstructed by greedy descent: from s, repeatedly step to any
// neighbor whose distance to t is exactly one less. Every step costs one
// neighbor scan with one distance query per neighbor, so a path of length
// d costs O(d · deg · Q) where Q is the query time — still microseconds
// on complex networks, and no extra index space.
func (sr *Searcher) Path(s, t int32) []int32 {
	d := sr.Distance(s, t)
	if d < 0 {
		return nil
	}
	path := make([]int32, 0, d+1)
	path = append(path, s)
	cur := s
	for remaining := d; remaining > 0; remaining-- {
		next := int32(-1)
		for _, v := range sr.ix.g.Neighbors(cur) {
			if v == t {
				next = v
				break
			}
			if sr.Distance(v, t) == remaining-1 {
				next = v
				break
			}
		}
		if next < 0 {
			// Unreachable by construction: Distance said remaining > 0,
			// so some neighbor must be closer.
			panic("core: Path: no descending neighbor (index corrupt?)")
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// Path is the convenience form using a pooled searcher.
func (ix *Index) Path(s, t int32) []int32 {
	sr := ix.pooled()
	p := sr.Path(s, t)
	release(sr)
	return p
}
