package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the "percentile" is a handful of individual requests.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p% of the
// samples at or below it. It returns NaN for an empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the p-th nearest-rank position.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// supported reports whether n samples carry the p-th percentile.
func supported(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is how
// the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// straddles is the cliff check: a percentile is only a stable summary when
// the samples two percentile points either side of it are about the same
// size. If either differs from the reported value by more than 10%, the
// percentile sits on the boundary between two size classes and a one-sample
// shift in the mix moves it by the whole gap.
func straddles(sorted []float64, p float64) bool {
	v := nearestRank(sorted, p)
	if len(sorted) == 0 || v <= 0 {
		return false
	}
	lo, hi := nearestRank(sorted, math.Max(p-2, 0.0001)), nearestRank(sorted, math.Min(p+2, 100))
	return math.Abs(lo-v)/v > 0.10 || math.Abs(hi-v)/v > 0.10
}

// medianOfRounds summarises one metric over a run: each measured round
// contributes one value and the run reports their median, so a round that
// fell into a slow machine phase cannot drag the figure. NaN rounds (too few
// samples for the statistic) are skipped; fewer than half usable rounds
// returns NaN and the caller falls back to pooling.
func medianOfRounds(perRound []float64) float64 {
	var ok []float64
	for _, v := range perRound {
		if !math.IsNaN(v) {
			ok = append(ok, v)
		}
	}
	if len(ok)*2 < len(perRound) || len(ok) == 0 {
		return math.NaN()
	}
	return median(ok)
}
