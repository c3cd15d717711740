package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure backed by fewer than ten samples is noise.
const minBeyond = 10

// quantiles returns the q-quantile of ds for each q by the nearest-rank
// rule: the smallest sample with at least ⌈q·n⌉ samples at or below it.
// ds is left unchanged; no samples give zeros.
func quantiles(ds []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(ds) == 0 {
		return out
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	for i, q := range qs {
		out[i] = s[rank(len(s), q)-1]
	}
	return out
}

// median is the nearest-rank 0.5-quantile of ds.
func median(ds []time.Duration) time.Duration { return quantiles(ds, 0.5)[0] }

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// tailSupported reports whether at least minBeyond of n samples lie
// strictly beyond the q-quantile's rank.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
