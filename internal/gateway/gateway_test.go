package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/nn"
	"advmal/internal/serve"
)

// validProgram is the same minimal parseable program the serve tests
// use; its CFG is what classifyKey hashes.
const validProgram = "movi r0, 1\nmovi r1, 2\nadd r0, r1\nret\n"

// fakeReplica is a scriptable stand-in for a serve replica: /readyz
// toggles, the classify endpoints run a swappable handler, and every
// classify hit is counted.
type fakeReplica struct {
	ts    *httptest.Server
	hits  atomic.Uint64
	ready atomic.Bool

	mu      sync.Mutex
	handler http.HandlerFunc
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.ready.Store(true)
	mux := http.NewServeMux()
	classify := func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		f.mu.Lock()
		h := f.handler
		f.mu.Unlock()
		if h != nil {
			h(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"class":"benign"}`)
	}
	mux.HandleFunc("POST /v1/classify", classify)
	mux.HandleFunc("POST /v1/classify/vector", classify)
	mux.HandleFunc("POST /v1/similar", classify)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) setHandler(h http.HandlerFunc) {
	f.mu.Lock()
	f.handler = h
	f.mu.Unlock()
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.ts.URL, "http://") }

// newTestGateway builds a gateway over the replicas. The base config
// parks the health checker on a long interval so tests control health
// transitions deterministically; tests override what they probe.
func newTestGateway(t *testing.T, cfg Config, replicas ...*fakeReplica) *Gateway {
	t.Helper()
	for _, f := range replicas {
		cfg.Backends = append(cfg.Backends, f.addr())
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1 // tests opt into hedging explicitly
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// do sends one request through the gateway handler.
func do(g *Gateway, method, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// replicaByURL finds which fake replica backs a *Backend.
func replicaByURL(t *testing.T, replicas []*fakeReplica, b *Backend) *fakeReplica {
	t.Helper()
	for _, f := range replicas {
		if f.ts.URL == b.URL {
			return f
		}
	}
	t.Fatalf("no replica for backend %s", b.URL)
	return nil
}

// Textual re-encodings of the same program — raw text, JSON under
// different names — carry the same CFG, so they must route to the same
// replica (the GraphKey affinity claim), and repeats must hit the
// routing-key cache.
func TestGatewayRoutesByGraphKey(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	g := newTestGateway(t, Config{}, replicas...)

	encodings := []struct{ contentType, body string }{
		{"text/plain", validProgram},
		{"application/json", fmt.Sprintf(`{"name":"alpha","program":%q}`, validProgram)},
		{"application/json", fmt.Sprintf(`{"name":"beta","program":%q}`, validProgram)},
		{"application/json;charset=UTF-8", fmt.Sprintf(`{"name":"gamma","program":%q}`, validProgram)},
	}
	for _, enc := range encodings {
		for i := 0; i < 2; i++ {
			rec := do(g, http.MethodPost, "/v1/classify", enc.contentType, enc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d body %s", rec.Code, rec.Body)
			}
		}
	}
	hot := 0
	for _, f := range replicas {
		if n := f.hits.Load(); n > 0 {
			hot++
			if n != 8 {
				t.Errorf("replica %s got %d hits, want all 8", f.addr(), n)
			}
		}
	}
	if hot != 1 {
		t.Fatalf("%d replicas received traffic, want exactly 1 (same CFG → same shard)", hot)
	}
	// 4 distinct bodies, each sent twice: second sends are cache hits.
	if hits := g.Metrics().KeyCacheHits.Load(); hits != 4 {
		t.Errorf("key cache hits = %d, want 4", hits)
	}
	if misses := g.Metrics().KeyCacheMisses.Load(); misses != 4 {
		t.Errorf("key cache misses = %d, want 4", misses)
	}
}

// A JSON envelope under a valid re-spelling of the header (no space,
// upper-case charset) is JSON at both hops: proxied to a real serve
// replica it answers 200 with the name echoed, not a parser 400.
func TestGatewayProxiesJSONCharsetVariant(t *testing.T) {
	lo, hi := make([]float64, features.NumFeatures), make([]float64, features.NumFeatures)
	for i := range hi {
		hi[i] = 1
	}
	s, err := serve.New(serve.Config{Handle: core.NewHandle(&core.Model{
		Scaler:    &features.Scaler{Min: lo, Max: hi},
		Net:       nn.PaperCNN(0),
		Extractor: features.NewExtractor(8),
	})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	g := newTestGateway(t, Config{}, &fakeReplica{ts: ts})

	rec := do(g, http.MethodPost, "/v1/classify", "application/json;charset=UTF-8",
		fmt.Sprintf(`{"name":"delta","program":%q}`, validProgram))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	var v serve.Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Name != "delta" {
		t.Fatalf("name not echoed: %+v", v)
	}
}

// Distinct vector bodies spread across the cluster rather than piling
// onto one replica.
func TestGatewayVectorSpread(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	g := newTestGateway(t, Config{}, replicas...)
	for i := 0; i < 60; i++ {
		body := fmt.Sprintf(`{"vector":[%d]}`, i)
		if rec := do(g, http.MethodPost, "/v1/classify/vector", "application/json", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	for _, f := range replicas {
		if f.hits.Load() == 0 {
			t.Errorf("replica %s received no traffic over 60 random keys", f.addr())
		}
	}
}

// A failing primary is retried on the shard's next candidate and the
// client still sees 200; the retry and the backend failure are counted.
func TestGatewayRetryFailover(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	g := newTestGateway(t, Config{RetryBackoff: time.Millisecond}, replicas...)

	key := g.classifyKey([]byte(validProgram), "text/plain")
	cands := g.candidates(key)
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	primary := replicaByURL(t, replicas, cands[0])
	primary.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})

	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", rec.Code)
	}
	m := g.Metrics()
	if m.Retries.Load() != 1 {
		t.Errorf("retries = %d, want 1", m.Retries.Load())
	}
	if m.Attempts.Load() != 2 {
		t.Errorf("attempts = %d, want 2", m.Attempts.Load())
	}
	if got := cands[0].Failures.Load(); got != 1 {
		t.Errorf("primary failures = %d, want 1", got)
	}
	if m.Requests.Load() != 1 {
		t.Errorf("requests = %d, want 1 (retries are not client requests)", m.Requests.Load())
	}
	if got := m.Responses()[http.StatusOK]; got != 1 {
		t.Errorf("200 responses = %d, want exactly 1", got)
	}
}

// Killing a replica mid-load never surfaces a 5xx to clients: requests
// in flight to the dead backend fail over to the shard's survivors.
func TestGatewayKillMidLoadZeroClientErrors(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	g := newTestGateway(t, Config{RetryBackoff: time.Millisecond}, replicas...)

	const total, killAt, workers = 80, 20, 4
	var sent atomic.Int64
	var non200 atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n := sent.Add(1)
				if n > total {
					return
				}
				if n == killAt {
					killOnce.Do(replicas[0].ts.Close)
				}
				body := fmt.Sprintf(`{"vector":[%d,%d]}`, w, n)
				rec := do(g, http.MethodPost, "/v1/classify/vector", "application/json", body)
				if rec.Code != http.StatusOK {
					non200.Add(1)
					t.Errorf("request %d: status %d body %s", n, rec.Code, rec.Body)
				}
			}
		}(w)
	}
	wg.Wait()
	if non200.Load() != 0 {
		t.Fatalf("%d client requests failed across the kill", non200.Load())
	}
	if got := g.Metrics().Responses()[http.StatusOK]; got != total {
		t.Errorf("200 responses = %d, want %d", got, total)
	}
}

// A slow primary past the hedge budget triggers exactly one hedge; the
// fast secondary's answer wins, the client sees it quickly, and the
// canceled loser is not booked as a backend failure.
func TestGatewayHedge(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	g := newTestGateway(t, Config{HedgeAfter: 10 * time.Millisecond, AttemptTimeout: 5 * time.Second}, replicas...)

	key := g.classifyKey([]byte(validProgram), "text/plain")
	cands := g.candidates(key)
	primary := replicaByURL(t, replicas, cands[0])
	release := make(chan struct{})
	primary.setHandler(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"class":"benign"}`)
	})
	defer close(release)

	start := time.Now()
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hedged request took %v; the slow primary gated the response", elapsed)
	}
	m := g.Metrics()
	if m.Hedges.Load() != 1 {
		t.Errorf("hedges = %d, want 1", m.Hedges.Load())
	}
	if m.HedgeWins.Load() != 1 {
		t.Errorf("hedge wins = %d, want 1", m.HedgeWins.Load())
	}
	if m.Requests.Load() != 1 || m.Responses()[http.StatusOK] != 1 {
		t.Errorf("requests=%d 200s=%d, want 1/1 — hedges must not double-count",
			m.Requests.Load(), m.Responses()[http.StatusOK])
	}
	if got := cands[0].Failures.Load(); got != 0 {
		t.Errorf("hedge loser booked %d failures, want 0", got)
	}
	if cands[0].Breaker.State() != BreakerClosed {
		t.Errorf("hedge loser's breaker = %v, want closed", cands[0].Breaker.State())
	}
}

// Consecutive failures trip the backend's breaker; while open the shard
// degrades to 503 + Retry-After; after the cooldown a half-open probe
// against the recovered replica closes it again.
func TestGatewayBreakerTripAndRecover(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{
		Breaker:      BreakerConfig{FailThreshold: 2, Cooldown: 50 * time.Millisecond},
		RetryBackoff: time.Millisecond,
	}, f)
	b := g.Backends()[0]

	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	for i := 0; i < 2; i++ {
		if rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram); rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want passed-through 500", i+1, rec.Code)
		}
	}
	if b.Breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", b.Breaker.State())
	}
	if g.Metrics().BreakerTrips.Load() != 1 {
		t.Errorf("breaker trips = %d, want 1", g.Metrics().BreakerTrips.Load())
	}

	// Open breaker: the shard has no admitted replica → degrade, fast.
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d while breaker open, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if g.Metrics().Unroutable.Load() != 1 {
		t.Errorf("unroutable = %d, want 1", g.Metrics().Unroutable.Load())
	}

	// Replica recovers; after the cooldown the half-open probe succeeds.
	f.setHandler(nil)
	time.Sleep(60 * time.Millisecond)
	rec = do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after recovery, want 200", rec.Code)
	}
	if b.Breaker.State() != BreakerClosed {
		t.Errorf("breaker %v after successful probe, want closed", b.Breaker.State())
	}
}

// With the whole shard dark the gateway answers 503 + Retry-After in
// bounded time instead of hanging.
func TestGatewayAllReplicasDown(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{AttemptTimeout: 200 * time.Millisecond, RetryBackoff: time.Millisecond}, f)
	f.ts.Close()

	start := time.Now()
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("degraded 503 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("degraded 503 body %q is not the JSON error envelope", rec.Body)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("degradation took %v, want bounded", d)
	}
}

// Health ejection is driven by consecutive probe verdicts; an ejected
// backend's shard is 503 (no live replica) without an upstream attempt,
// and re-admission restores routing and resets the breaker.
func TestGatewayEjectReadmitDeterministic(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{EjectAfter: 2, ReadmitAfter: 1}, f)
	b := g.Backends()[0]

	g.observeHealth(b, false)
	if !b.Healthy() {
		t.Fatal("ejected after 1 failed probe, want 2")
	}
	g.observeHealth(b, false)
	if b.Healthy() {
		t.Fatal("not ejected after EjectAfter failed probes")
	}
	if g.Metrics().Ejections.Load() != 1 || b.EjectCount.Load() != 1 {
		t.Errorf("ejections = %d/%d, want 1/1", g.Metrics().Ejections.Load(), b.EjectCount.Load())
	}
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d against ejected shard, want 503", rec.Code)
	}
	if f.hits.Load() != 0 {
		t.Errorf("ejected backend still received %d attempts", f.hits.Load())
	}

	// Pre-load stale breaker state; re-admission must clear it.
	b.Breaker.Failure()
	g.observeHealth(b, true)
	if !b.Healthy() {
		t.Fatal("not readmitted after ReadmitAfter ok probes")
	}
	if g.Metrics().Readmissions.Load() != 1 {
		t.Errorf("readmissions = %d, want 1", g.Metrics().Readmissions.Load())
	}
	if rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram); rec.Code != http.StatusOK {
		t.Fatalf("status %d after readmission, want 200", rec.Code)
	}
}

// The live health loop converges too: a replica flipping /readyz to 503
// is ejected within a few poll intervals and readmitted after recovery.
func TestGatewayHealthLoopLive(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{HealthInterval: 5 * time.Millisecond, EjectAfter: 2, ReadmitAfter: 1}, f)
	b := g.Backends()[0]

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	f.ready.Store(false)
	waitFor(func() bool { return !b.Healthy() }, "ejection")
	f.ready.Store(true)
	waitFor(func() bool { return b.Healthy() }, "re-admission")
}

// The per-client token bucket sheds with 429 + Retry-After before any
// routing work happens.
func TestGatewayRateLimit(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{Rate: 1, Burst: 1}, f)

	if rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram); rec.Code != http.StatusOK {
		t.Fatalf("first request status %d", rec.Code)
	}
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	m := g.Metrics()
	if m.RateLimited.Load() != 1 {
		t.Errorf("rate limited = %d, want 1", m.RateLimited.Load())
	}
	if m.Requests.Load() != 1 {
		t.Errorf("requests = %d, want 1 (shed requests are not admitted)", m.Requests.Load())
	}
	if f.hits.Load() != 1 {
		t.Errorf("backend saw %d hits, want 1", f.hits.Load())
	}
}

// Oversized bodies are rejected at the gateway, not proxied.
func TestGatewayMaxBody(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{MaxBody: 64}, f)
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", strings.Repeat("x", 200))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	if f.hits.Load() != 0 {
		t.Error("oversized body reached a backend")
	}
}

// /metrics exposes the gateway counters and per-backend series in
// Prometheus text format.
func TestGatewayMetricsEndpoint(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{}, f)
	do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)

	rec := do(g, http.MethodGet, "/metrics", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"gateway_requests_total 1",
		"gateway_responses_total{code=\"200\"} 1",
		fmt.Sprintf("gateway_backend_healthy{backend=%q} 1", f.addr()),
		fmt.Sprintf("gateway_backend_breaker_state{backend=%q,state=\"closed\"} 1", f.addr()),
		"gateway_backend_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// /readyz: ready while any backend is healthy, 503 when draining or
// when the whole replica set is dark. /backends dumps the state.
func TestGatewayReadyzAndBackends(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{}, f)
	if rec := do(g, http.MethodGet, "/readyz", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz %d, want 200", rec.Code)
	}
	if rec := do(g, http.MethodGet, "/healthz", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz %d, want 200", rec.Code)
	}

	rec := do(g, http.MethodGet, "/backends", "", "")
	var rows []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil || len(rows) != 1 {
		t.Fatalf("backends dump %q: %v", rec.Body, err)
	}

	b := g.Backends()[0]
	g.observeHealth(b, false)
	g.observeHealth(b, false)
	if rec := do(g, http.MethodGet, "/readyz", "", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d with all backends dark, want 503", rec.Code)
	}
	g.observeHealth(b, true)
	g.NotReady()
	if rec := do(g, http.MethodGet, "/readyz", "", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d while draining, want 503", rec.Code)
	}
}

func TestNormalizeBackend(t *testing.T) {
	cases := []struct{ in, id, url string }{
		{"127.0.0.1:8377", "127.0.0.1:8377", "http://127.0.0.1:8377"},
		{"http://127.0.0.1:8377", "127.0.0.1:8377", "http://127.0.0.1:8377"},
		{"http://127.0.0.1:8377/", "127.0.0.1:8377", "http://127.0.0.1:8377"},
		{"https://replica:443", "replica:443", "https://replica:443"},
	}
	for _, c := range cases {
		id, url, err := normalizeBackend(c.in)
		if err != nil || id != c.id || url != c.url {
			t.Errorf("normalizeBackend(%q) = %q, %q, %v; want %q, %q", c.in, id, url, err, c.id, c.url)
		}
	}
	for _, bad := range []string{"", "nohost", "http://noport/"} {
		if _, _, err := normalizeBackend(bad); err == nil {
			t.Errorf("normalizeBackend(%q) accepted", bad)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New without backends accepted")
	}
}

// The routing-key cache is a bounded LRU of KeyCacheSize bodies: hot
// bodies survive, cold ones are evicted at capacity, and every lookup is
// one hit or one miss on /metrics.
func TestKeyCacheLRU(t *testing.T) {
	g := newTestGateway(t, Config{KeyCacheSize: 2}, newFakeReplica(t))
	send := func(body string) {
		t.Helper()
		if rec := do(g, http.MethodPost, "/v1/classify", "text/plain", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d body %s", rec.Code, rec.Body)
		}
	}
	a, b, c := validProgram, "movi r0, 2\nret\n", "movi r0, 3\nret\n"
	for _, step := range []struct {
		body         string
		hits, misses uint64
	}{
		{a, 0, 1},
		{b, 0, 2},
		{a, 1, 2}, // refreshes a
		{c, 1, 3}, // evicts b, the cold entry
		{a, 2, 3}, // a survived
		{c, 3, 3},
		{b, 3, 4}, // b was evicted
	} {
		send(step.body)
		if h, m := g.Metrics().KeyCacheHits.Load(), g.Metrics().KeyCacheMisses.Load(); h != step.hits || m != step.misses {
			t.Fatalf("after %q: key cache hits %d misses %d, want %d and %d", step.body, h, m, step.hits, step.misses)
		}
	}
}

// Unparseable classify bodies still route (body-hash fallback) and the
// replica's 400 passes through untouched.
func TestGatewayUnparseableBodyFallback(t *testing.T) {
	f := newFakeReplica(t)
	g := newTestGateway(t, Config{}, f)
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"parse"}`)
	})
	rec := do(g, http.MethodPost, "/v1/classify", "text/plain", "not a program !!")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want replica's 400 passed through", rec.Code)
	}
	if g.Metrics().Retries.Load() != 0 {
		t.Error("4xx must not be retried")
	}
}

// The gateway survives a ReverseProxy-style comparison burn-in: many
// concurrent mixed requests, no races (run under -race), every request
// answered.
func TestGatewayConcurrentMixedLoad(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	g := newTestGateway(t, Config{RetryBackoff: time.Millisecond}, replicas...)

	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var rec *httptest.ResponseRecorder
				if i%2 == 0 {
					rec = do(g, http.MethodPost, "/v1/classify", "text/plain", validProgram)
				} else {
					rec = do(g, http.MethodPost, "/v1/classify/vector", "application/json",
						fmt.Sprintf(`{"vector":[%d,%d]}`, w, i))
				}
				if rec.Code != http.StatusOK {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d requests failed under concurrent load", bad.Load())
	}
}

// TestGatewaySimilarAffinityAndQuery pins the /v1/similar route: the
// same program body shares a shard with /v1/classify (both hash the
// GraphKey, so a replica's warm feature cache serves both), and the ?k=
// query string is forwarded to the backend without perturbing the
// routing key.
func TestGatewaySimilarAffinityAndQuery(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	var gotQuery atomic.Value
	for _, f := range replicas {
		f.setHandler(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/similar" {
				gotQuery.Store(r.URL.RawQuery)
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"family":"mirai"}`)
		})
	}
	g := newTestGateway(t, Config{}, replicas...)

	for _, path := range []string{"/v1/classify", "/v1/similar", "/v1/similar?k=7"} {
		rec := do(g, http.MethodPost, path, "text/plain", validProgram)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, rec.Code, rec.Body)
		}
	}
	hot := 0
	for _, f := range replicas {
		if n := f.hits.Load(); n > 0 {
			hot++
			if n != 3 {
				t.Errorf("replica %s got %d hits, want all 3", f.addr(), n)
			}
		}
	}
	if hot != 1 {
		t.Fatalf("%d replicas received traffic, want exactly 1 (classify and similar share the CFG shard)", hot)
	}
	if q, _ := gotQuery.Load().(string); q != "k=7" {
		t.Fatalf("backend saw query %q, want k=7 forwarded", q)
	}
}

// TestGatewaySimilarFailover: a replica without a loaded index answers
// 501; the gateway's retry ladder must fail the request over to a
// replica that has one.
func TestGatewaySimilarFailover(t *testing.T) {
	noIndex := newFakeReplica(t)
	noIndex.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotImplemented)
		fmt.Fprintln(w, `{"error":"no similarity index loaded"}`)
	})
	withIndex := newFakeReplica(t)
	withIndex.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"family":"gafgyt"}`)
	})
	g := newTestGateway(t, Config{RetryBackoff: time.Millisecond}, noIndex, withIndex)

	// Whichever replica owns the shard, the answer must come from the
	// indexed one.
	rec := do(g, http.MethodPost, "/v1/similar?k=3", "text/plain", validProgram)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "gafgyt") {
		t.Fatalf("response did not come from the indexed replica: %s", rec.Body)
	}
}
