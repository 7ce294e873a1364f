package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"highway/internal/graph"
)

// EdgeOp is one churn step: an undirected edge insertion or (Del)
// deletion. It deliberately mirrors core.Op without importing it, so
// the harness stays below every labelling in the dependency graph.
type EdgeOp struct {
	A, B int32
	Del  bool
}

// ChurnConfig tunes CheckChurn. The zero value means 20 batches of 8
// ops, 30% deletions, 50 sampled pairs per batch, seed 1.
type ChurnConfig struct {
	Batches     int     // op batches applied (0 = 20)
	BatchSize   int     // ops per batch (0 = 8)
	DeleteRatio float64 // fraction of ops that delete a live edge (0 = 0.3; negative = none)
	Trials      int     // sampled pairs verified after every batch (0 = 50)
	Seed        int64   // rng seed for ops and pair sampling (0 = 1)
}

func (c *ChurnConfig) defaults() {
	if c.Batches == 0 {
		c.Batches = 20
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.DeleteRatio == 0 {
		c.DeleteRatio = 0.3
	} else if c.DeleteRatio < 0 {
		c.DeleteRatio = 0
	}
	if c.Trials == 0 {
		c.Trials = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// churnMirror is the plain-adjacency ground truth the system under test
// is compared against: an edge set with O(1) membership and uniform
// live-edge sampling, rebuilt into a CSR graph for BFS after each
// batch.
type churnMirror struct {
	n    int
	set  map[[2]int32]int // normalized edge -> index in list
	list [][2]int32
}

func newChurnMirror(g *graph.Graph) *churnMirror {
	m := &churnMirror{n: g.NumVertices(), set: make(map[[2]int32]int)}
	for v := int32(0); int(v) < m.n; v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				m.add(v, u)
			}
		}
	}
	return m
}

func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

func (m *churnMirror) add(a, b int32) {
	k := edgeKey(a, b)
	if _, ok := m.set[k]; ok || a == b {
		return
	}
	m.set[k] = len(m.list)
	m.list = append(m.list, k)
}

func (m *churnMirror) remove(a, b int32) {
	k := edgeKey(a, b)
	i, ok := m.set[k]
	if !ok {
		return
	}
	last := len(m.list) - 1
	m.list[i] = m.list[last]
	m.set[m.list[i]] = i
	m.list = m.list[:last]
	delete(m.set, k)
}

func (m *churnMirror) apply(op EdgeOp) {
	if op.Del {
		m.remove(op.A, op.B)
	} else {
		m.add(op.A, op.B)
	}
}

func (m *churnMirror) graph() *graph.Graph {
	return graph.MustFromEdges(m.n, m.list)
}

// generateBatch draws one seeded op batch against the current live edge
// set: deletions pick a uniformly random live edge (so they almost
// always take effect), insertions pick a uniformly random vertex pair
// (occasionally a duplicate or self-loop, exercising the no-op paths).
func (m *churnMirror) generateBatch(rng *rand.Rand, size int, deleteRatio float64) []EdgeOp {
	ops := make([]EdgeOp, 0, size)
	for i := 0; i < size; i++ {
		if rng.Float64() < deleteRatio && len(m.list) > 0 {
			e := m.list[rng.Intn(len(m.list))]
			ops = append(ops, EdgeOp{A: e[0], B: e[1], Del: true})
		} else {
			ops = append(ops, EdgeOp{A: int32(rng.Intn(m.n)), B: int32(rng.Intn(m.n))})
		}
		// The mirror must track within-batch effects, or two deletions
		// in one batch could name the same edge and silently diverge
		// from systems that apply ops in order.
		m.apply(ops[len(ops)-1])
	}
	return ops
}

// DiffChurn drives a seeded mixed insert/delete workload against a
// system under test and differentially checks it after every batch:
// apply receives each op batch (return an error to abort), oracle is
// re-fetched after each apply (systems that publish immutable snapshots
// return the newest one) and compared against BFS ground truth on the
// evolved edge set over cfg.Trials sampled pairs. Returns the first
// divergence, annotated with the batch it appeared after.
func DiffChurn(g *graph.Graph, cfg ChurnConfig,
	apply func(ops []EdgeOp) error, oracle func() Oracle) error {
	cfg.defaults()
	if g.NumVertices() == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := newChurnMirror(g)
	for batch := 0; batch < cfg.Batches; batch++ {
		ops := m.generateBatch(rng, cfg.BatchSize, cfg.DeleteRatio)
		if err := apply(ops); err != nil {
			return fmt.Errorf("oracle: churn batch %d: %w", batch, err)
		}
		truth := m.graph()
		pairs := SampledPairs(m.n, cfg.Trials, cfg.Seed^int64(batch+1))
		if err := Diff(truth, oracle(), pairs); err != nil {
			return fmt.Errorf("oracle: after churn batch %d (%d live edges): %w",
				batch, len(m.list), err)
		}
	}
	return nil
}

// CheckChurn fails the test on the first DiffChurn divergence.
func CheckChurn(t testing.TB, g *graph.Graph, cfg ChurnConfig,
	apply func(ops []EdgeOp) error, oracle func() Oracle) {
	t.Helper()
	if err := DiffChurn(g, cfg, apply, oracle); err != nil {
		t.Fatal(err)
	}
}

// CheckChurnCases runs CheckChurn over the whole corner-case suite:
// build is called once per case with the starting graph and returns
// the apply/oracle hooks (nil apply skips the case). The degenerate
// shapes matter here — churn on a path or star reaches disconnection
// and reconnection states a dense random graph rarely visits.
func CheckChurnCases(t *testing.T, cfg ChurnConfig,
	build func(t *testing.T, g *graph.Graph) (func(ops []EdgeOp) error, func() Oracle)) {
	t.Helper()
	for _, c := range CornerCases() {
		t.Run(c.Name, func(t *testing.T) {
			apply, oracle := build(t, c.Graph)
			if apply == nil {
				t.Skip("builder declined this case")
			}
			CheckChurn(t, c.Graph, cfg, apply, oracle)
		})
	}
}
