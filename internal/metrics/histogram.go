// Package metrics holds the one latency/size histogram the serving
// replica and the gateway both export on /metrics. Stdlib only.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket, lock-free histogram. Buckets are
// cumulative-upper-bound style (Prometheus semantics): counts[i] counts
// observations <= bounds[i], with a final implicit +Inf bucket. All
// methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // bits of a float64 accumulated via CAS
	total  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an upper-bound estimate of the q-quantile: the
// smallest bucket bound whose cumulative count covers fraction q of the
// observations (+Inf bucket falls back to the largest finite bound).
// Zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= need {
			return b
		}
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// WritePrometheus emits the histogram in Prometheus text exposition
// format under the given metric name.
func (h *Histogram) WritePrometheus(w io.Writer, name string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}
