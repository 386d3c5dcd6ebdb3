package gateway

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"advmal/internal/metrics"
)

// Metrics is the gateway's observability registry. Counters follow the
// one-fact-one-counter rule the resilience tests pin: Requests counts
// each client request exactly once no matter how many attempts, retries,
// or hedges it fans into — those are counted separately — and responses
// are counted once under the status the client actually saw.
type Metrics struct {
	Requests    atomic.Uint64 // client requests admitted past rate limiting
	RateLimited atomic.Uint64 // 429s from the per-client token bucket
	Unroutable  atomic.Uint64 // 503s: no live replica for the key's shard

	Attempts  atomic.Uint64 // upstream attempts launched (first + retries + hedges)
	Retries   atomic.Uint64 // attempts launched because a prior one failed
	Hedges    atomic.Uint64 // attempts launched because a prior one was slow
	HedgeWins atomic.Uint64 // hedged attempts that delivered the client response

	BreakerTrips atomic.Uint64 // breaker transitions to open, all backends
	Ejections    atomic.Uint64 // health-check ejections, all backends
	Readmissions atomic.Uint64 // health-check re-admissions, all backends

	// BackendLat observes successful upstream attempt latency; its p99
	// feeds the auto hedge budget.
	BackendLat *metrics.Histogram

	mu        sync.Mutex
	responses map[int]uint64 // client-visible responses by status
}

// NewMetrics returns a registry with the standard latency buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		BackendLat: metrics.NewHistogram(50e-6, 100e-6, 250e-6, 500e-6, 1e-3,
			2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5),
		responses: make(map[int]uint64),
	}
}

// Response records the status the client saw. Exactly one call per
// client request.
func (m *Metrics) Response(status int) {
	m.mu.Lock()
	m.responses[status]++
	m.mu.Unlock()
}

// Responses returns a copy of the by-status response counts.
func (m *Metrics) Responses() map[int]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]uint64, len(m.responses))
	for k, v := range m.responses {
		out[k] = v
	}
	return out
}

// WriteText emits every gateway metric in Prometheus text exposition
// format, including per-backend health, breaker state, and traffic.
func (m *Metrics) WriteText(w io.Writer, backends []*Backend) {
	fmt.Fprintf(w, "gateway_requests_total %d\n", m.Requests.Load())
	fmt.Fprintf(w, "gateway_rate_limited_total %d\n", m.RateLimited.Load())
	fmt.Fprintf(w, "gateway_unroutable_total %d\n", m.Unroutable.Load())
	fmt.Fprintf(w, "gateway_attempts_total %d\n", m.Attempts.Load())
	fmt.Fprintf(w, "gateway_retries_total %d\n", m.Retries.Load())
	fmt.Fprintf(w, "gateway_hedges_total %d\n", m.Hedges.Load())
	fmt.Fprintf(w, "gateway_hedge_wins_total %d\n", m.HedgeWins.Load())
	fmt.Fprintf(w, "gateway_breaker_trips_total %d\n", m.BreakerTrips.Load())
	fmt.Fprintf(w, "gateway_ejections_total %d\n", m.Ejections.Load())
	fmt.Fprintf(w, "gateway_readmissions_total %d\n", m.Readmissions.Load())

	m.mu.Lock()
	statuses := make([]int, 0, len(m.responses))
	for s := range m.responses {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		fmt.Fprintf(w, "gateway_responses_total{code=\"%d\"} %d\n", s, m.responses[s])
	}
	m.mu.Unlock()

	for _, b := range backends {
		healthy := 0
		if b.Healthy() {
			healthy = 1
		}
		fmt.Fprintf(w, "gateway_backend_healthy{backend=%q} %d\n", b.ID, healthy)
		fmt.Fprintf(w, "gateway_backend_breaker_state{backend=%q,state=%q} 1\n",
			b.ID, b.Breaker.State())
		fmt.Fprintf(w, "gateway_backend_breaker_trips_total{backend=%q} %d\n", b.ID, b.Breaker.Trips())
		fmt.Fprintf(w, "gateway_backend_attempts_total{backend=%q} %d\n", b.ID, b.Attempts.Load())
		fmt.Fprintf(w, "gateway_backend_failures_total{backend=%q} %d\n", b.ID, b.Failures.Load())
		fmt.Fprintf(w, "gateway_backend_ejections_total{backend=%q} %d\n", b.ID, b.EjectCount.Load())
	}
	m.BackendLat.WritePrometheus(w, "gateway_backend_latency_seconds")
}
