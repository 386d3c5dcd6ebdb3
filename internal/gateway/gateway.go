// Package gateway is the fault-tolerant front door of the detection
// cluster: a stdlib-only reverse proxy spreading /v1/classify traffic
// over N serve replicas.
//
// Routing is a consistent hash on features.GraphKey — the same content
// hash the per-replica feature-cache memoizes under — so every repeated
// graph (a GEA probe stream, a re-submitted sample) lands on the replica
// whose extractor LRU is already warm for it. Around that placement sit
// the resilience layers the single-node stack cannot provide: a
// health-checked replica set polled over /readyz, capped-backoff retries
// and p99-budget hedging across the shard's failover candidates, a
// half-open circuit breaker per backend, per-client token-bucket load
// shedding, and graceful 503 + Retry-After degradation when a shard has
// no live replica. Every layer exports Prometheus-text counters on the
// gateway's own /metrics.
package gateway

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/lru"
	"advmal/internal/serve"
)

// Config configures a Gateway. Backends is required; everything else
// has the default noted on its field.
type Config struct {
	// Backends lists the replica base URLs (http://host:port; a bare
	// host:port gets the scheme prefixed). Required, order-insensitive —
	// ring placement depends only on the address set.
	Backends []string
	// VirtualNodes is the ring points per backend. Default 128.
	VirtualNodes int
	// MaxAttempts caps upstream attempts per request (first try +
	// retries + hedges). Default 3, clamped to len(Backends).
	MaxAttempts int
	// RetryBackoff and RetryBackoffMax bound the capped exponential
	// backoff (±20% jitter) between retry attempts. Defaults 5ms, 100ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// AttemptTimeout bounds each upstream attempt. Default 2s.
	AttemptTimeout time.Duration
	// HedgeAfter sets the hedge budget: >0 fixed, 0 auto (the observed
	// upstream p99, clamped to [HedgeMin, HedgeMax], once 64 samples
	// exist), <0 disables hedging.
	HedgeAfter time.Duration
	// HedgeMin and HedgeMax clamp the auto hedge budget. Defaults 2ms, 1s.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// Breaker configures each backend's circuit breaker.
	Breaker BreakerConfig
	// HealthInterval and HealthTimeout tune the /readyz pollers.
	// Defaults 250ms, 1s.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// EjectAfter and ReadmitAfter are the consecutive-probe thresholds
	// for leaving and rejoining the replica set. Defaults 2, 1.
	EjectAfter   int
	ReadmitAfter int
	// Rate and Burst configure per-client token-bucket shedding
	// (tokens/second and bucket size). Rate 0 disables.
	Rate  float64
	Burst float64
	// MaxBody bounds request and response bodies. Default 1 MiB.
	MaxBody int64
	// KeyCacheSize bounds the body-hash → routing-key cache that spares
	// the gateway re-parsing hot request bodies. Default 4096.
	KeyCacheSize int
	// Transport overrides the upstream transport (tests). Nil selects a
	// keep-alive transport sized for the backend count.
	Transport http.RoundTripper
}

func (c *Config) defaults() error {
	if len(c.Backends) == 0 {
		return errors.New("gateway: Config.Backends is required")
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxAttempts > len(c.Backends) {
		c.MaxAttempts = len(c.Backends)
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 100 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 1
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.KeyCacheSize <= 0 {
		c.KeyCacheSize = 4096
	}
	return nil
}

// Gateway is the cluster front door. Create with New, expose via
// Handler, stop with Close.
type Gateway struct {
	cfg      Config
	backends []*Backend
	ring     *Ring
	metrics  *Metrics
	client   *http.Client
	limiter  *RateLimiter
	keys     *lru.Cache[[sha256.Size]byte, uint64] // body SHA-256 → routing key
	mux      *http.ServeMux
	ready    atomic.Bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// New builds the gateway and starts its health-check loops. Backends
// start healthy — the first failed probes eject them — so a cluster
// boots routable without waiting a full poll interval.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		metrics: NewMetrics(),
		keys:    lru.New[[sha256.Size]byte, uint64](cfg.KeyCacheSize),
		limiter: NewRateLimiter(RateLimiterConfig{Rate: cfg.Rate, Burst: cfg.Burst}),
		done:    make(chan struct{}),
	}
	ids := make([]string, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		id, url, err := normalizeBackend(raw)
		if err != nil {
			return nil, err
		}
		ids[i] = id
		b := &Backend{ID: id, URL: url, Breaker: NewBreaker(cfg.Breaker)}
		b.healthy.Store(true)
		g.backends = append(g.backends, b)
	}
	g.ring = NewRing(ids, cfg.VirtualNodes)
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        64 * len(cfg.Backends),
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	g.client = &http.Client{Transport: transport}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		g.proxy(w, r, "/v1/classify", g.classifyKey)
	})
	g.mux.HandleFunc("POST /v1/classify/vector", func(w http.ResponseWriter, r *http.Request) {
		g.proxy(w, r, "/v1/classify/vector", bodyKey)
	})
	// /v1/similar routes on the same graph key as /v1/classify: a
	// sample queried for neighbors right after classification lands on
	// the replica whose extractor cache is already warm for its CFG.
	// The same retry/hedge/breaker ladder applies.
	g.mux.HandleFunc("POST /v1/similar", func(w http.ResponseWriter, r *http.Request) {
		g.proxy(w, r, "/v1/similar", g.classifyKey)
	})
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /backends", g.handleBackends)
	g.ready.Store(true)

	for i, b := range g.backends {
		g.wg.Add(1)
		go g.healthLoop(b, int64(i+1))
	}
	return g, nil
}

// normalizeBackend splits a configured backend into its ring ID
// (host:port) and base URL.
func normalizeBackend(raw string) (id, url string, err error) {
	url = raw
	switch {
	case len(raw) >= 7 && raw[:7] == "http://":
		id = raw[7:]
	case len(raw) >= 8 && raw[:8] == "https://":
		id = raw[8:]
	default:
		id = raw
		url = "http://" + raw
	}
	for len(id) > 0 && id[len(id)-1] == '/' {
		id = id[:len(id)-1]
		url = url[:len(url)-1]
	}
	if _, _, err := net.SplitHostPort(id); err != nil {
		return "", "", fmt.Errorf("gateway: backend %q: want host:port: %w", raw, err)
	}
	return id, url, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics returns the gateway's metrics registry.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Backends returns the replica set (read-only use).
func (g *Gateway) Backends() []*Backend { return g.backends }

// NotReady flips /readyz to 503 so upstream load balancers stop routing
// here; the first step of a graceful drain.
func (g *Gateway) NotReady() { g.ready.Store(false) }

// Close stops the health-check loops. In-flight proxied requests are
// unaffected (the caller drains its http.Server separately).
func (g *Gateway) Close() {
	select {
	case <-g.done:
	default:
		close(g.done)
	}
	g.wg.Wait()
}

// candidates returns the shard's live failover chain for a key: ring
// successors that are health-checked ready and breaker-admitted, capped
// at MaxAttempts. Empty means the whole shard is down.
func (g *Gateway) candidates(key uint64) []*Backend {
	nodes := g.ring.Successors(key, g.cfg.MaxAttempts, func(n int) bool {
		return g.backends[n].Available()
	})
	out := make([]*Backend, len(nodes))
	for i, n := range nodes {
		out[i] = g.backends[n]
	}
	return out
}

// proxy is the shared request path: shed, read, route, forward, relay.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, path string, keyFn func(body []byte, contentType string) uint64) {
	if ok, retryAfter := g.limiter.Allow(clientKey(r), time.Now()); !ok {
		g.metrics.RateLimited.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		g.respondError(w, http.StatusTooManyRequests, "client rate limit exceeded")
		return
	}
	g.metrics.Requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			g.respondError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", g.cfg.MaxBody))
		} else {
			g.respondError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return
	}
	contentType := r.Header.Get("Content-Type")
	key := keyFn(body, contentType)
	// Forward the query string (e.g. /v1/similar?k=10) but never let it
	// into the routing key — placement depends only on content.
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	cands := g.candidates(key)
	if len(cands) == 0 {
		g.metrics.Unroutable.Add(1)
		w.Header().Set("Retry-After", "1")
		g.respondError(w, http.StatusServiceUnavailable, "no live replica for shard")
		return
	}
	res := g.forward(r.Context(), path, contentType, body, cands)
	if res.err != nil {
		// Every live candidate failed (or the client gave up). Degrade,
		// don't hang: tell the client when to come back.
		g.metrics.Unroutable.Add(1)
		w.Header().Set("Retry-After", "1")
		g.respondError(w, http.StatusServiceUnavailable, "all shard replicas failed: "+res.err.Error())
		return
	}
	g.metrics.Response(res.status)
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// classifyKey computes the routing key for a /v1/classify body: the
// program's features.GraphKey, so textual re-encodings of the same CFG
// (a renamed JSON sample, the same graph re-submitted) route to the same
// replica and hit its warm extractor cache. Unparseable bodies fall back
// to the body hash — the replica will reject them with 400, any replica
// will do. Keys are memoized under the body's SHA-256 so hot bodies
// (replayed probe streams) skip the parse entirely.
func (g *Gateway) classifyKey(body []byte, contentType string) uint64 {
	sum := sha256.Sum256(body)
	if key, ok := g.keys.Get(sum); ok {
		g.metrics.KeyCacheHits.Add(1)
		return key
	}
	g.metrics.KeyCacheMisses.Add(1)
	text := body
	if serve.IsJSON(contentType) {
		var req struct {
			Program string `json:"program"`
		}
		if err := json.Unmarshal(body, &req); err == nil {
			text = []byte(req.Program)
		}
	}
	key := KeyFromSum(sum)
	if prog, err := ir.Parse(string(text)); err == nil {
		if cfg, err := ir.Disassemble(prog); err == nil {
			key = KeyFromSum(features.GraphKey(cfg.G()))
		}
	}
	g.keys.Add(sum, key)
	return key
}

// bodyKey routes a raw-vector request by its body hash: there is no
// graph, hence no cache affinity to preserve — the hash just keeps the
// placement deterministic and evenly spread.
func bodyKey(body []byte, _ string) uint64 {
	return KeyFromSum(sha256.Sum256(body))
}

// clientKey identifies a client for rate limiting: the connection's
// remote IP.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After value, at least 1 second.
func retryAfterSeconds(d time.Duration) string {
	s := int(d / time.Second)
	if d%time.Second != 0 || s == 0 {
		s++
	}
	return strconv.Itoa(s)
}

// respondError writes the same JSON error envelope the replicas use.
func (g *Gateway) respondError(w http.ResponseWriter, status int, msg string) {
	g.metrics.Response(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: msg})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.metrics.WriteText(w, g.backends)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz answers ready while the gateway is not draining and at
// least one backend is routable.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !g.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	for _, b := range g.backends {
		if b.Healthy() {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ready\n")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "no healthy backends\n")
}

// handleBackends dumps the replica set's state as JSON (debugging aid).
func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID       string `json:"id"`
		Healthy  bool   `json:"healthy"`
		Breaker  string `json:"breaker"`
		Attempts uint64 `json:"attempts"`
		Failures uint64 `json:"failures"`
		Trips    uint64 `json:"breaker_trips"`
		Ejected  uint64 `json:"ejections"`
		// ModelVer is the replica's serving model version as of its last
		// successful ready probe (0 = not yet scraped).
		ModelVer uint64 `json:"model_version"`
	}
	rows := make([]row, len(g.backends))
	for i, b := range g.backends {
		rows[i] = row{
			ID:       b.ID,
			Healthy:  b.Healthy(),
			Breaker:  b.Breaker.State().String(),
			Attempts: b.Attempts.Load(),
			Failures: b.Failures.Load(),
			Trips:    b.Breaker.Trips(),
			Ejected:  b.EjectCount.Load(),
			ModelVer: b.ModelVer.Load(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}
