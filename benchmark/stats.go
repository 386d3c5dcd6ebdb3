package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-quantile (nearest rank) of sorted. A tail
// percentile is only as good as the samples beyond it, so the rank is
// lowered until at least minBeyond samples lie above it; the median is
// always allowed. It reports the p it used. sorted must be ascending.
func percentile(sorted []float64, p float64) (v, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := max(int(math.Ceil(p*float64(n)))-1, 0)
	if highest := n - 1 - minBeyond; p > 0.5 && rank > highest {
		if median := (n+1)/2 - 1; highest > median {
			rank, p = highest, float64(highest+1)/float64(n)
		} else {
			rank, p = median, 0.5
		}
	}
	return sorted[rank], p
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minPerGroup is the fewest samples a group may hold and still support
// a p95: minBeyond of them lie above it.
const minPerGroup = 20 * minBeyond

// completion is one finished operation: when it finished, measured from
// the start of the phase, and how long it took.
type completion struct {
	end     float64 // seconds
	latency float64 // ms
}

// groupByCompletion orders the completions by end time and splits them
// into up to n groups of equal count, fewer when a group would be too
// small to support a p95. One noisy stretch of a run then spoils one
// group, and the run reports the median group.
func groupByCompletion(cs []completion, n int) [][]completion {
	sorted := append([]completion(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end < sorted[j].end })
	n = max(1, min(n, len(sorted)/minPerGroup))
	groups := make([][]completion, n)
	for k := range groups {
		groups[k] = sorted[k*len(sorted)/n : (k+1)*len(sorted)/n]
	}
	return groups
}

// steady is what a phase reports: each number is the median over the
// groups of the group's own rate, p50 and p95.
type steady struct {
	rate   float64 // completions per second
	p50    float64 // ms
	p95    float64 // ms
	used95 float64 // the percentile p95 actually is (see percentile)
}

// summarize reduces groups of completions to the phase's numbers. A
// group's clock starts where the previous group ended, so the rate means
// something only for groups cut from one phase (groupByCompletion).
func summarize(groups [][]completion) steady {
	var rates, p50s, p95s []float64
	used := 0.95
	prev := 0.0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		lat := make([]float64, len(g))
		for i, c := range g {
			lat[i] = c.latency
		}
		sort.Float64s(lat)
		p50, _ := percentile(lat, 0.50)
		p95, u := percentile(lat, 0.95)
		p50s, p95s, used = append(p50s, p50), append(p95s, p95), math.Min(used, u)
		if last := g[len(g)-1].end; last > prev {
			rates = append(rates, float64(len(g))/(last-prev))
			prev = last
		}
	}
	return steady{rate: median(rates), p50: median(p50s), p95: median(p95s), used95: used}
}
