package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/index"
	"advmal/internal/ir"
)

// branchy is an assembly program whose CFG has n diamonds' worth of
// blocks: distinct n, distinct GraphKey.
func branchy(n int) string {
	var b strings.Builder
	b.WriteString("movi r0, 1\n")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "jeq @%d\nnop\n", 3+2*j)
	}
	b.WriteString("ret\n")
	return b.String()
}

// classifyOK posts one program and decodes its verdict.
func classifyOK(t *testing.T, url, contentType, body string, header http.Header) Verdict {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/classify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, buf.Bytes())
	}
	var v Verdict
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// wantVerdict checks a verdict against the model's offline answer for
// the program: every probability bit for bit, and the CFG summary. The
// oracle extracts with its own cache, so it moves no served counter.
func wantVerdict(t *testing.T, m *core.Model, text string, v Verdict) {
	t.Helper()
	prog, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &core.Model{Scaler: m.Scaler, Net: m.Net, Extractor: features.NewExtractor(1)}
	_, probs, err := oracle.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ir.Disassemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Probs) != len(probs) || v.Blocks != cfg.G().N() || v.Edges != cfg.G().M() {
		t.Fatalf("verdict %+v, want probs %v blocks %d edges %d", v, probs, cfg.G().N(), cfg.G().M())
	}
	for i := range probs {
		if math.Float64bits(v.Probs[i]) != math.Float64bits(probs[i]) {
			t.Fatalf("verdict probs %v, offline %v", v.Probs, probs)
		}
	}
}

func cacheStats(s *Server) features.CacheStats { return s.h.Current().Extractor.Stats() }

// TestTextCacheCounting pins the replica's counting rule: N identical
// requests are one miss and N-1 hits (all at the text level), distinct
// programs are all misses, and every verdict is the offline one.
func TestTextCacheCounting(t *testing.T) {
	det := testDetector()
	s, ts := testServer(t, Config{Handle: core.NewHandle(det)})
	const n = 6
	text := branchy(2)
	for i := 0; i < n; i++ {
		wantVerdict(t, det, text, classifyOK(t, ts.URL, "text/plain", text, nil))
	}
	if st := cacheStats(s); st.Misses != 1 || st.Hits != n-1 || st.Texts != 1 {
		t.Fatalf("%d identical requests: %+v, want 1 miss, %d hits, 1 text", n, st, n-1)
	}

	det = testDetector()
	s, ts = testServer(t, Config{Handle: core.NewHandle(det)})
	for i := 0; i < n; i++ {
		text := branchy(i)
		wantVerdict(t, det, text, classifyOK(t, ts.URL, "text/plain", text, nil))
	}
	if st := cacheStats(s); st.Misses != n || st.Hits != 0 {
		t.Fatalf("%d distinct programs: %+v, want %d misses and no hit", n, st, n)
	}
}

// TestTextCacheSharedAcrossEncodings: the text level is keyed by the
// program text, not the body, so a raw post and JSON posts of one program
// share one entry; the JSON name is per request, never cached.
func TestTextCacheSharedAcrossEncodings(t *testing.T) {
	det := testDetector()
	s, ts := testServer(t, Config{Handle: core.NewHandle(det)})
	text := branchy(3)
	wantVerdict(t, det, text, classifyOK(t, ts.URL, "text/plain", text, nil))
	for _, name := range []string{"first", "second"} {
		body, _ := json.Marshal(map[string]string{"name": name, "program": string(text)})
		v := classifyOK(t, ts.URL, "application/json", string(body), nil)
		wantVerdict(t, det, text, v)
		if v.Name != name {
			t.Fatalf("verdict name %q, want %q", v.Name, name)
		}
	}
	if st := cacheStats(s); st.Texts != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("one program in two encodings: %+v, want 1 text, 1 miss, 2 hits", st)
	}
}

// TestTextCacheFailuresNotCached: text that does not parse is a 400 on
// every attempt, through both endpoints, and touches no counter.
// (Disassembly re-validates what parsing validated, so over HTTP a 422
// cannot follow a successful parse; its error takes the same path.)
func TestTextCacheFailuresNotCached(t *testing.T) {
	s, ts := testServer(t, Config{Corpus: testCorpus(t)})
	for i := 0; i < 3; i++ {
		for _, path := range []string{"/v1/classify", "/v1/similar"} {
			resp, body := postSimilar(t, ts, path, "text/plain", "jmp @999\nret\n")
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s attempt %d: status %d body %s, want 400", path, i, resp.StatusCode, body)
			}
		}
	}
	if st := cacheStats(s); st.Hits != 0 || st.Misses != 0 || st.Texts != 0 {
		t.Fatalf("failed requests left a cache trace: %+v", st)
	}
}

// TestTextCacheIgnoresHeaders: the key is computed from the body alone.
// Headers naming another program's content hash cannot make a request
// read that program's entry.
func TestTextCacheIgnoresHeaders(t *testing.T) {
	det := testDetector()
	s, ts := testServer(t, Config{Handle: core.NewHandle(det)})
	cached, other := branchy(1), branchy(4)
	classifyOK(t, ts.URL, "text/plain", cached, nil)
	sum := sha256.Sum256([]byte(cached))
	forged := http.Header{}
	for _, h := range []string{"X-Content-Sha256", "X-Program-Key", "X-Graph-Key", "X-Cache-Key", "ETag", "If-None-Match", "Digest"} {
		forged.Set(h, hex.EncodeToString(sum[:]))
	}
	wantVerdict(t, det, other, classifyOK(t, ts.URL, "text/plain", other, forged))
	if st := cacheStats(s); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("forged headers: %+v, want 2 misses and no hit", st)
	}
}

// TestTextCacheHitAcrossSwap: a cached extraction is raw, so after an
// /admin/swap to a model with another scaler a text-level hit is scaled,
// scored and triaged by the new snapshot alone.
func TestTextCacheHitAcrossSwap(t *testing.T) {
	c := testCorpus(t)
	s, ts := testServer(t, Config{Handle: core.NewHandle(testDetector()), Corpus: c, Admin: true})
	text := branchy(2)
	before := classifyOK(t, ts.URL, "text/plain", text, nil)

	next := swapModel(3)
	for i := range next.Scaler.Max {
		next.Scaler.Max[i] = 2 + float64(i)
	}
	var blob bytes.Buffer
	if err := next.Save(&blob); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/admin/swap", "application/octet-stream", &blob)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d", resp.StatusCode)
	}

	after := classifyOK(t, ts.URL, "text/plain", text, nil)
	if st := cacheStats(s); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("request after the swap was not a cache hit: %+v", st)
	}
	live := s.h.Current()
	if after.ModelVersion != 2 || live.Version != 2 {
		t.Fatalf("verdict version %d, live %d, want 2", after.ModelVersion, live.Version)
	}
	wantVerdict(t, live, text, after)
	x, err := features.NewExtractor(1).ExtractText([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := live.Scaler.Transform(x.Vec[:])
	if err != nil {
		t.Fatal(err)
	}
	wantTriage(t, c, scaled, after.Triage)
	if before.Triage.Distance == after.Triage.Distance {
		t.Fatal("the new scaler did not move the triage distance; the test cannot tell the snapshots apart")
	}
}

// wantTriage checks a served triage block against the exact oracle.
func wantTriage(t *testing.T, c *index.Corpus, scaled []float64, got *index.TriageInfo) {
	t.Helper()
	hits, err := index.NewExact(c.HNSW.Store()).Search(scaled, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Triage.Score(hits); got == nil || *got != want {
		t.Fatalf("triage %+v, exact oracle %+v", got, want)
	}
}

// TestServedNeighboursMatchExact: the triage block of /v1/classify and
// the hits of /v1/similar are the exact oracle's, for programs and for
// raw vectors, at bit-identical distances.
func TestServedNeighboursMatchExact(t *testing.T) {
	c := testCorpus(t)
	det := testDetector()
	_, ts := testServer(t, Config{Handle: core.NewHandle(det), Corpus: c})
	exact := index.NewExact(c.HNSW.Store())
	store := c.HNSW.Store()

	var queries [][]float64
	for i := 0; i < 4; i++ {
		text := branchy(i)
		v := classifyOK(t, ts.URL, "text/plain", text, nil)
		x, err := det.Extractor.ExtractText([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		wantTriage(t, c, x.Vec[:], v.Triage) // identity scaler
		queries = append(queries, x.Vec[:])
	}
	for _, id := range []int{0, 42, 599} {
		q := append([]float64(nil), store.Vec(id)...)
		q[0] += 0.01
		queries = append(queries, q)
	}
	for _, q := range queries {
		body, _ := json.Marshal(vectorRequest{Vector: q})
		resp, raw := postSimilar(t, ts, "/v1/classify/vector", "application/json", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("vector classify: status %d body %s", resp.StatusCode, raw)
		}
		var v Verdict
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		wantTriage(t, c, q, v.Triage)

		resp, raw = postSimilar(t, ts, "/v1/similar?k=9", "application/json", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("similar: status %d body %s", resp.StatusCode, raw)
		}
		var sr SimilarResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		want, err := exact.Search(q, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Hits) != len(want) {
			t.Fatalf("similar: %d hits, exact %d", len(sr.Hits), len(want))
		}
		for i := range want {
			if sr.Hits[i] != want[i] {
				t.Fatalf("similar hit %d: %+v, exact %+v", i, sr.Hits[i], want[i])
			}
		}
	}
}

// TestSimilarOverflowVectorRejected is the regression test for
// /v1/similar answering 200 with an empty body: a vector whose distances
// overflow to +Inf skipped the admission check /v1/classify/vector
// applies and then failed the JSON encoder after the status was written.
// It is a 400 envelope now, counted as one error.
func TestSimilarOverflowVectorRejected(t *testing.T) {
	s, ts := testServer(t, Config{Corpus: testCorpus(t)})
	for i, x := range []float64{1e200, 1e308, math.MaxFloat64} {
		vec := make([]float64, features.NumFeatures)
		for j := range vec {
			vec[j] = x
		}
		body, _ := json.Marshal(similarRequest{Vector: vec})
		resp, raw := postSimilar(t, ts, "/v1/similar", "application/json", string(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("vector of %g: status %d body %q, want 400", x, resp.StatusCode, raw)
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, ErrBadInput.Error()) {
			t.Fatalf("vector of %g: body %q is not the bad-input envelope", x, raw)
		}
		if got := s.metrics.Errors.Load(); got != uint64(i+1) {
			t.Fatalf("vector of %g: %d errors counted, want %d", x, got, i+1)
		}
	}
}
