package main

import (
	"testing"
	"time"
)

// seq returns 1..n nanoseconds, shuffled so quantiles must sort.
func seq(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration((i*7919)%n + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{100, 0.5, 50},
		{100, 0.99, 99},
		{100, 1, 100},
		{101, 0.5, 51},
		{1000, 0.99, 990},
		{1, 0.5, 1},
		{1, 0.99, 1},
		{3, 0.5, 2},
		{4, 0.5, 2},
		{10, 0.01, 1},
	}
	for _, c := range cases {
		if got := quantiles(seq(c.n), c.q)[0]; got != c.want {
			t.Errorf("quantile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := quantiles(nil, 0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Errorf("quantiles of no samples = %v, want zeros", got)
	}
}

// A tail percentile is reported as supported only with at least ten
// samples strictly beyond its rank.
func TestTailSupported(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1001, 0.99, true},
		{20, 0.5, true}, // rank 10, 10 beyond
		{19, 0.5, false},
		{1, 0.99, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if m := median(ds); m != 2*time.Millisecond {
		t.Errorf("median = %v, want 2ms", m)
	}
	if ds[0] != 3*time.Millisecond {
		t.Errorf("median reordered its input: %v", ds)
	}
	if ms(1500*time.Microsecond) != 1.5 || us(2*time.Millisecond) != 2000 {
		t.Error("unit conversion")
	}
}
