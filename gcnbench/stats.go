package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value:
// a percentile with fewer samples beyond it is a single outlier, not a
// tail.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailStat is the highest percentile of a sample that still has
// minBeyond samples above it.
type tailStat struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // 100·(n−minBeyond)/n
	N          int     // sample count
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.2f of %d samples (%d beyond)", t.Percentile, t.N, minBeyond)
}

// tailOf returns the highest percentile of xs with at least minBeyond
// samples beyond it: the (n−minBeyond)-th smallest value. It fails when
// the sample is too small to have a tail.
func tailOf(xs []float64) (tailStat, error) {
	n := len(xs)
	if n <= minBeyond {
		return tailStat{}, fmt.Errorf("tail needs more than %d samples, have %d", minBeyond, n)
	}
	xs = sorted(xs)
	return tailStat{
		Value:      xs[n-minBeyond-1],
		Percentile: 100 * float64(n-minBeyond) / float64(n),
		N:          n,
	}, nil
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for
// an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(len(xs))))
	return sorted(xs)[max(k-1, 0)]
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
