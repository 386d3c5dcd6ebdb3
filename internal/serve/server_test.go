package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/nn"
)

// testDetector builds a detector with an untrained network and an
// identity scaler — the full serving path without training cost.
func testDetector() *core.Model {
	min := make([]float64, features.NumFeatures)
	max := make([]float64, features.NumFeatures)
	for i := range max {
		max[i] = 1
	}
	return &core.Model{
		Scaler:    &features.Scaler{Min: min, Max: max},
		Net:       nn.PaperCNN(0),
		Extractor: features.NewExtractor(64),
	}
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Handle == nil {
		cfg.Handle = core.NewHandle(testDetector())
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

const validProgram = "movi r0, 1\nmovi r1, 2\nadd r0, r1\nret\n"

func postClassify(t *testing.T, ts *httptest.Server, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/classify", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestServerClassifyText posts raw assembly and checks the verdict
// matches the detector's offline answer field by field.
func TestServerClassifyText(t *testing.T) {
	det := testDetector()
	s, ts := testServer(t, Config{Handle: core.NewHandle(det)})
	resp, body := postClassify(t, ts, "text/plain", validProgram)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad verdict JSON %q: %v", body, err)
	}
	prog, err := ir.Parse(validProgram)
	if err != nil {
		t.Fatal(err)
	}
	pred, probs, err := det.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != pred || v.Label != Label(pred) || v.Confidence != probs[pred] {
		t.Fatalf("server verdict %+v diverges from offline classify (%d, %v)", v, pred, probs)
	}
	if v.Blocks <= 0 {
		t.Fatalf("verdict missing CFG summary: %+v", v)
	}
	if len(v.Probs) != 2 || v.Probs[pred] != probs[pred] {
		t.Fatalf("probs not faithful: %+v vs %v", v.Probs, probs)
	}
	_ = s
}

// TestServerClassifyJSON posts the JSON request form with a name, under
// the canonical header and a valid re-spelling of it (no space, upper-
// case charset) that must not fall through to the assembly parser.
func TestServerClassifyJSON(t *testing.T) {
	_, ts := testServer(t, Config{})
	reqBody, _ := json.Marshal(map[string]string{"name": "sample-1", "program": validProgram})
	for _, ct := range []string{"application/json", "application/json;charset=UTF-8"} {
		resp, body := postClassify(t, ts, ct, string(reqBody))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", ct, resp.StatusCode, body)
		}
		var v Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Name != "sample-1" {
			t.Fatalf("%s: name not echoed: %+v", ct, v)
		}
	}
}

// TestServerClassifyVector posts a raw feature vector.
func TestServerClassifyVector(t *testing.T) {
	_, ts := testServer(t, Config{})
	vec := make([]float64, features.NumFeatures)
	for i := range vec {
		vec[i] = 0.25
	}
	reqBody, _ := json.Marshal(vectorRequest{Name: "vec-1", Vector: vec})
	resp, err := http.Post(ts.URL+"/v1/classify/vector", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Blocks != 0 || v.Edges != 0 {
		t.Fatalf("vector verdict should omit CFG summary: %+v", v)
	}
	if len(v.Probs) != 2 {
		t.Fatalf("bad probs: %+v", v)
	}
}

// TestServerBadRequests maps malformed inputs to 4xx, never 5xx.
func TestServerBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{MaxBody: 512})
	cases := []struct {
		name, ct, body string
		want           int
	}{
		{"garbage asm", "text/plain", "not a program %%%", http.StatusBadRequest},
		{"bad json", "application/json", "{nope", http.StatusBadRequest},
		{"oversize", "text/plain", strings.Repeat("nop\n", 1024) + "ret\n", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := postClassify(t, ts, tc.ct, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (body %s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not a JSON envelope: %q", tc.name, body)
		}
	}
	// Wrong-dimension vector → 400.
	reqBody, _ := json.Marshal(vectorRequest{Vector: []float64{1, 2, 3}})
	resp, err := http.Post(ts.URL+"/v1/classify/vector", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short vector: status %d want 400", resp.StatusCode)
	}
}

// TestServerOverflowVectorRejected pins the admission check on component
// magnitude. A vector of +-1e308 used to overflow the first convolution
// to +-Inf, Inf-Inf gave NaN, ReLU maps NaN to 0, and the logits collapsed
// to their biases: 200 "benign" at confidence 0.5. It is a 400 now,
// counted as one error and no batch panic, and a healthy vector served
// beside it gets the answer it gets alone.
func TestServerOverflowVectorRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	post := func(vec []float64) (int, Verdict) {
		t.Helper()
		reqBody, _ := json.Marshal(vectorRequest{Vector: vec})
		resp, err := http.Post(ts.URL+"/v1/classify/vector", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v Verdict
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, v
	}
	healthy := make([]float64, features.NumFeatures)
	huge := make([]float64, features.NumFeatures)
	for i := range huge {
		healthy[i] = 0.25
		huge[i] = 1e308
		if i%2 == 1 {
			huge[i] = -1e308
		}
	}
	_, alone := post(healthy)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code, v := post(healthy); code != http.StatusOK || !reflect.DeepEqual(v.Probs, alone.Probs) {
			t.Errorf("healthy peer: status %d probs %v, alone %v", code, v.Probs, alone.Probs)
		}
	}()
	if code, v := post(huge); code != http.StatusBadRequest {
		t.Errorf("overflowing vector: status %d (verdict %+v), want 400", code, v)
	}
	wg.Wait()
	// One component just past what an extractor can emit is enough.
	healthy[22] = maxFeature * 2
	if code, _ := post(healthy); code != http.StatusBadRequest {
		t.Errorf("component beyond the extractor's range: status %d, want 400", code)
	}
	if e, p := s.metrics.Errors.Load(), s.metrics.Panics.Load(); e != 2 || p != 0 {
		t.Errorf("errors %d panics %d, want 2 and 0", e, p)
	}
}

// TestServerHealthAndMetrics covers the observability endpoints: healthz
// always up, readyz flipping on drain, and /metrics carrying request,
// verdict, batch, and cache series.
func TestServerHealthAndMetrics(t *testing.T) {
	s, ts := testServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
	}
	// Serve the same program twice: the second hit must come from the
	// feature cache and show up in the hit-rate series.
	for i := 0; i < 2; i++ {
		resp, body := postClassify(t, ts, "text/plain", validProgram)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"advmal_requests_total 2",
		"advmal_verdicts_total",
		"advmal_batch_size_bucket",
		"advmal_queue_wait_seconds_count 2",
		"advmal_inference_seconds_sum",
		"advmal_feature_cache_hits_total 1",
		"advmal_feature_cache_hit_rate 0.5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// Drain: readyz flips to 503 and the batcher reports zero drops.
	s.NotReady()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after NotReady: status %d, want 503", resp.StatusCode)
	}
	if st := s.Drain(); st.Dropped != 0 || st.Accepted != 2 {
		t.Fatalf("drain stats: %+v", st)
	}
}

// TestServerNoIdleWait pins the work-conserving flush on the production
// path (Config defaults, no knob): an idle batcher answers a lone request
// at engine latency, so sequential submits on a no-op engine complete in
// microseconds. Any wait for batch peers would put every one of them at
// that wait or above; the median keeps a noisy box from flaking it.
func TestServerNoIdleWait(t *testing.T) {
	s, _ := testServer(t, Config{
		NewEngine: func() BatchEngine { return &poisonEngine{classes: 2} },
	})
	x := make([]float64, features.NumFeatures)
	lat := make([]time.Duration, 200)
	for i := range lat {
		start := time.Now()
		if _, _, err := s.batcher.SubmitV(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if median := lat[len(lat)/2]; median >= 500*time.Microsecond {
		t.Fatalf("median idle Submit took %v, want < 500µs: the batcher is waiting for peers", median)
	}
}

// TestServerQueueFull429 wedges the engine and checks overload maps to a
// fast 429 with Retry-After.
func TestServerQueueFull429(t *testing.T) {
	eng := &blockEngine{release: make(chan struct{}), classes: 2}
	s, ts := testServer(t, Config{
		Workers: 1, BatchSize: 1, QueueDepth: 1,
		NewEngine: func() BatchEngine { return eng },
	})
	// Wedge: one request in flight, one in queue.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/classify", "text/plain", strings.NewReader(validProgram))
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	waitFor(t, func() bool { return eng.entered.Load() == 1 && s.metrics.Requests.Load() == 2 })
	resp, body := postClassify(t, ts, "text/plain", validProgram)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	go func() { eng.release <- struct{}{}; eng.release <- struct{}{} }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerRequestTimeout504 keeps the only engine busy past the request
// budget: the request can only queue, and its handler answers 504 on time.
func TestServerRequestTimeout504(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers: 1, BatchSize: 1, QueueDepth: 4,
		RequestTimeout: 10 * time.Millisecond,
	})
	e := <-s.batcher.idle
	defer func() { s.batcher.idle <- e }()
	resp, body := postClassify(t, ts, "text/plain", validProgram)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504 (body %s)", resp.StatusCode, body)
	}
}

// TestServerDrainingRejects503 checks post-drain requests get 503.
func TestServerDrainingRejects503(t *testing.T) {
	s, ts := testServer(t, Config{})
	if st := s.Drain(); st.Dropped != 0 {
		t.Fatalf("drain: %+v", st)
	}
	resp, body := postClassify(t, ts, "text/plain", validProgram)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d want 503 (body %s)", resp.StatusCode, body)
	}
}
