package main

import (
	"fmt"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the percentile is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the sample at rank ceil(p*n) (1-based) of sorted, the
// nearest-rank definition, and the number of samples ranked beyond it.
func quantile(sorted []int64, p float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(p * float64(n))
	if float64(rank) < p*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// latency summarises virtual per-op latencies in nanoseconds: the median
// and the 99th percentile. The p99 is refused (an error) unless at least
// minBeyond samples lie beyond it, so a reported tail is never a single
// outlier; the caller sizes runs so this holds.
type latency struct {
	samples  int
	p50, p99 int64
}

func summarize(what string, ns []int64) (latency, error) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50, _ := quantile(s, 0.50)
	p99, beyond := quantile(s, 0.99)
	if beyond < minBeyond {
		return latency{}, fmt.Errorf("%s: %d samples leave %d beyond p99, need %d", what, len(s), beyond, minBeyond)
	}
	return latency{samples: len(s), p50: p50, p99: p99}, nil
}

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }
