package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported. With fewer, the "tail" is one or two unlucky samples.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile (0 < pct < 100) of
// samples. It refuses when fewer than minBeyond samples lie beyond it, so
// p99 needs at least 1,000 samples.
func percentile(samples []float64, pct int) (float64, error) {
	n := len(samples)
	rank := (pct*n + 99) / 100 // ceil(pct*n/100), 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d", pct, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so the
// spread this command prints is the one the benchmark is judged by.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}
