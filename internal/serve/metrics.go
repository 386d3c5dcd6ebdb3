package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/metrics"
)

// durationBounds are the latency buckets (seconds): 5µs … 1s. The
// buckets below 50µs resolve the queue wait, which is microseconds
// whenever an engine is free.
func durationBounds() []float64 {
	return []float64{5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1}
}

// batchBounds are the batch-size buckets.
func batchBounds() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128}
}

// Metrics is the serving observability registry: atomic counters and
// histograms covering the request path end to end. One instance is
// shared by the server, the batcher, and /metrics.
type Metrics struct {
	// Request-path counters.
	Requests    atomic.Uint64 // accepted into the queue
	RejectedFul atomic.Uint64 // fast-429: queue at depth bound
	RejectedDrn atomic.Uint64 // 503: draining, no longer accepting
	Expired     atomic.Uint64 // request context expired before its result
	Errors      atomic.Uint64 // requests answered with an error verdict
	Panics      atomic.Uint64 // batch panics isolated by the batcher

	// Verdict counters on the binary detection axis (class 0 vs rest).
	VerdictBenign  atomic.Uint64
	VerdictMalware atomic.Uint64
	// ByClass counts verdicts per raw class index — per-family verdict
	// rates under a family-head model. Sized for the family head with
	// headroom; out-of-range classes only bump the binary counters.
	ByClass [8]atomic.Uint64
	// Classes is the serving head width, stamped once at server
	// construction; WriteText emits the per-family verdict series only
	// when it exceeds the binary width.
	Classes int

	// Similarity-layer counters: /v1/similar queries served, and
	// classify/similar responses whose triage distance exceeded the
	// calibrated threshold (the off-manifold, GEA-shaped queries).
	Similar       atomic.Uint64
	TriageFlagged atomic.Uint64

	// Distributions.
	BatchSize *metrics.Histogram // rows per executed batch
	QueueWait *metrics.Histogram // enqueue → batch start, seconds
	InferLat  *metrics.Histogram // batch execution, seconds
}

// NewMetrics returns a registry with the standard buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		BatchSize: metrics.NewHistogram(batchBounds()...),
		QueueWait: metrics.NewHistogram(durationBounds()...),
		InferLat:  metrics.NewHistogram(durationBounds()...),
	}
}

// Verdict records one verdict by class: the binary collapse (class 0 is
// benign, everything else malicious) plus the raw per-class counter.
func (m *Metrics) Verdict(class int) {
	if m == nil {
		return
	}
	if class != 0 {
		m.VerdictMalware.Add(1)
	} else {
		m.VerdictBenign.Add(1)
	}
	if class >= 0 && class < len(m.ByClass) {
		m.ByClass[class].Add(1)
	}
}

// WriteText emits every metric in Prometheus text exposition format,
// plus the feature-cache counters and hit rate from cache (pass a zero
// CacheStats when no extractor is wired in).
func (m *Metrics) WriteText(w io.Writer, cache features.CacheStats) {
	fmt.Fprintf(w, "advmal_requests_total %d\n", m.Requests.Load())
	fmt.Fprintf(w, "advmal_rejected_total{reason=\"queue_full\"} %d\n", m.RejectedFul.Load())
	fmt.Fprintf(w, "advmal_rejected_total{reason=\"draining\"} %d\n", m.RejectedDrn.Load())
	fmt.Fprintf(w, "advmal_expired_total %d\n", m.Expired.Load())
	fmt.Fprintf(w, "advmal_errors_total %d\n", m.Errors.Load())
	fmt.Fprintf(w, "advmal_batch_panics_total %d\n", m.Panics.Load())
	fmt.Fprintf(w, "advmal_verdicts_total{class=\"benign\"} %d\n", m.VerdictBenign.Load())
	fmt.Fprintf(w, "advmal_verdicts_total{class=\"malware\"} %d\n", m.VerdictMalware.Load())
	if m.Classes > 2 {
		for c := 0; c < m.Classes && c < len(m.ByClass); c++ {
			fmt.Fprintf(w, "advmal_verdicts_family_total{family=%q} %d\n",
				core.ClassName(c, m.Classes), m.ByClass[c].Load())
		}
	}
	fmt.Fprintf(w, "advmal_similar_requests_total %d\n", m.Similar.Load())
	fmt.Fprintf(w, "advmal_triage_flagged_total %d\n", m.TriageFlagged.Load())
	m.BatchSize.WritePrometheus(w, "advmal_batch_size")
	m.QueueWait.WritePrometheus(w, "advmal_queue_wait_seconds")
	m.InferLat.WritePrometheus(w, "advmal_inference_seconds")
	fmt.Fprintf(w, "advmal_feature_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "advmal_feature_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "advmal_feature_cache_entries %d\n", cache.Len)
	if total := cache.Hits + cache.Misses; total > 0 {
		fmt.Fprintf(w, "advmal_feature_cache_hit_rate %g\n", float64(cache.Hits)/float64(total))
	} else {
		fmt.Fprintf(w, "advmal_feature_cache_hit_rate 0\n")
	}
}
