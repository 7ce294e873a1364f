package bfs

import "highway/internal/graph"

// The differential tests live in package bfs_test (they use
// internal/oracle, which imports this package); these names let them force
// a direction and read the per-direction stats, which no caller can.
type Direction = direction

const (
	DirectionAuto     = dirAuto
	DirectionTopDown  = dirTopDown
	DirectionBottomUp = dirBottomUp
)

// DistancesIntoDir is distancesCSR: dist pre-filled with Unreachable.
func DistancesIntoDir(g *graph.Graph, src int32, dist []int32, dir Direction, stats *TraversalStats) int {
	return distancesCSR(g, src, dist, dir, stats)
}

// SetEpoch sets the epoch of sc's last search, so that a test can run
// the next searches across the epoch at which the stamps are cleared.
func SetEpoch(sc *Scratch, epoch uint32) { sc.epoch = epoch }
