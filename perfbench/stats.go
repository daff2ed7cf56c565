package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail figure may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailLadder that has at
// least ten of n samples beyond it, or 0 when even the median has fewer.
// A tail figure with fewer than ten samples past it is one or two outliers,
// not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank p-th percentile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// dist is a sample of durations or sizes with percentile accessors.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v); d.sorted = false }

func (d *dist) addDur(v time.Duration) { d.add(float64(v)) }

func (d *dist) n() int { return len(d.vals) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// p returns the nearest-rank percentile, or NaN for an empty sample.
func (d *dist) p(p float64) float64 {
	d.sort()
	return quantile(d.vals, p)
}

// tail returns the highest percentile the sample supports under
// tailPercentile and the value there; the percentile is capped at want.
func (d *dist) tail(want float64) (pct, v float64) {
	pct = tailPercentile(d.n())
	if pct > want {
		pct = want
	}
	if pct == 0 {
		pct = 50
	}
	return pct, d.p(pct)
}

// sample is one request's latency and the time it was due.
type sample struct {
	due time.Time
	lat time.Duration
}

// samples are request latencies in the order they completed.
type samples []sample

func (s samples) dist() *dist {
	d := &dist{vals: make([]float64, len(s))}
	for i, x := range s {
		d.vals[i] = float64(x.lat)
	}
	return d
}

// windowedTail reports a phase's tail as the median, over consecutive
// windows of the phase, of each window's tail percentile. The percentile
// is the one the whole sample supports (see tail, capped at want); the
// phase is cut into as many windows as still hold ten samples beyond it
// each. A burst of outside load then moves one window's figure, not the
// reported one. With fewer samples than two windows need, the tail is the
// whole sample's.
func windowedTail(s samples, want float64) (pct, v float64, windows int) {
	pct, v = s.dist().tail(want)
	k := len(s) / windowSize(pct)
	if k < 2 {
		return pct, v, 1
	}
	byDue := append(samples(nil), s...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due.Before(byDue[j].due) })
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = byDue[i*len(s)/k : (i+1)*len(s)/k].dist().p(pct)
	}
	return pct, median(tails), k
}

// windowSize is the fewest samples that have ten beyond the percentile p.
func windowSize(p float64) int {
	return int(math.Ceil(10/(1-p/100) - 1e-9))
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

func median(vals []float64) float64 {
	d := dist{vals: append([]float64(nil), vals...)}
	d.sort()
	n := len(d.vals)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d.vals[n/2]
	}
	return (d.vals[n/2-1] + d.vals[n/2]) / 2
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
