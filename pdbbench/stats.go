package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over 500 samples rests on 5 observations and moves with every
// outlier, so a tail is only reported where at least this many samples are
// slower than it.
const minBeyond = 10

// sample is a set of observations of one quantity (latencies in
// microseconds, stage durations, counts).
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 < q <= 1) by the nearest-rank rule: the
// smallest observation with at least q of the sample at or below it. It
// returns 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	ss := s.sorted()
	return ss[rankOf(q, len(ss))-1]
}

// rankOf is the 1-based nearest rank of the q-quantile in n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the q-quantile's rank.
func beyond(q float64, n int) int { return n - rankOf(q, n) }

// tailCandidates are the percentiles a tail is reported at, highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// highestTail returns the highest candidate percentile that has at least
// minBeyond samples above it in a sample of n, or false when even the median
// does not.
func highestTail(n int) (float64, bool) {
	for _, q := range tailCandidates {
		if beyond(q, n) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// windowed is the median, over consecutive windows of the sample (in the
// order observed), of each window's q-quantile. Windows are as many as keep
// minBeyond samples beyond q in each, at most maxWindows. A burst of
// interference from outside the process — CPU steal on a shared VM — then
// spoils one window's figure instead of the run's.
func (s sample) windowed(q float64) float64 {
	const maxWindows = 8
	w := beyond(q, len(s)) / minBeyond
	if w > maxWindows {
		w = maxWindows
	}
	if w <= 1 {
		return s.quantile(q)
	}
	per := make([]float64, w)
	for i := range per {
		per[i] = s[i*len(s)/w : (i+1)*len(s)/w].quantile(q)
	}
	return median(per)
}

// scale returns the sample with every value multiplied by f.
func (s sample) scale(f float64) sample {
	out := make(sample, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}

func median(xs []float64) float64 { return sample(xs).quantile(0.5) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
