package main

import (
	"math"
	"sort"
)

// cell is one reported metric: Value is the median of Values, its
// per-cycle values on an untraced run and its per-round or per-unit
// values on a traced one, and Spread their dispersion, the distance
// between their quartiles as a share of the median. The one exception
// is req_tail_us, whose Value is taken over the requests of all cycles
// pooled (see finish); Note then says which percentile of how many.
type cell struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread"`
	Rounds int       `json:"rounds"`
	Values []float64 `json:"values"`
	Note   string    `json:"note,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spreadOf is the dispersion stated beside every median: the distance
// between the first and the third quartile as a share of the median,
// the quartiles taken as Python's statistics.quantiles(xs, n=4) takes
// them, which is how the driver judges run-to-run spread.
func spreadOf(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, between samples
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercent picks the highest of p99/p95/p90/p75 that leaves at least
// ten of n samples beyond it, and p75 when none does.
func tailPercent(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p) >= 1000 {
			return p
		}
	}
	return 75
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FNV-1a over int32 distances: the answer checksum of a request stream.
const fnvOffset = 14695981039346656037

func fnvAdd(h uint64, d int32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(d >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// shapeMid is the central latency of a stream that alternates two
// request shapes: the mean of the two shapes' medians. The plain median
// of such a stream sits on the edge between its two modes and jumps
// from one to the other.
func shapeMid(ordered []float64) float64 {
	var even, odd []float64
	for i, x := range ordered {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	return (median(even) + median(odd)) / 2
}
