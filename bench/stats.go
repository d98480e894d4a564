package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, so it is refused rather than
// printed.
const minBeyond = 10

// quantile is one reported order statistic: its value, the sample count
// it rests on, and whether the count supports it.
type quantile struct {
	Value float64
	N     int
	OK    bool
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which it sorts in place. The result is OK only when at least
// minBeyond samples lie strictly beyond the chosen rank.
func percentile(samples []float64, q float64) quantile {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return quantile{N: n}
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	rank := int(math.Ceil(q * float64(n)))
	return quantile{Value: samples[rank-1], N: n, OK: n-rank >= minBeyond}
}

func (q quantile) String() string {
	if !q.OK {
		return fmt.Sprintf("%g (n=%d, too few samples)", q.Value, q.N)
	}
	return fmt.Sprintf("%g (n=%d)", q.Value, q.N)
}

// ratio is a/b, 0 when b is 0: a per-unit figure over no units reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
