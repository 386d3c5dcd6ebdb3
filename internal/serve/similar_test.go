package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/index"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// nanEngine is a fake inference engine whose probabilities are NaN —
// the failure mode a numerically blown-up model produces.
type nanEngine struct{}

func (nanEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i := range out {
		out[i] = []float64{math.NaN(), math.NaN()}
	}
	return out
}

func (nanEngine) SafeProbs(x []float64) ([]float64, error) {
	return []float64{math.NaN(), math.NaN()}, nil
}

// TestServerNaNProbs is the regression test for the wire-path NaN bug:
// encoding/json refuses NaN, so before the guard a blown-up model
// produced an opaque mid-response encoder failure (status 200 already
// written, body truncated). Now the verdict is rejected up front with a
// typed 500 whose body is a well-formed JSON error envelope.
func TestServerNaNProbs(t *testing.T) {
	_, ts := testServer(t, Config{
		NewEngine: func() BatchEngine { return nanEngine{} },
	})
	resp, body := postClassify(t, ts, "text/plain", validProgram)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not valid JSON: %q (%v)", body, err)
	}
	if !strings.Contains(eb.Error, "non-finite") {
		t.Fatalf("error %q does not name the non-finite cause", eb.Error)
	}
}

// TestMakeVerdictNonFinite pins the guard itself across NaN and both
// infinities, and that finite probabilities still pass.
func TestMakeVerdictNonFinite(t *testing.T) {
	for _, bad := range [][]float64{
		{math.NaN(), 0.5},
		{0.5, math.Inf(1)},
		{math.Inf(-1), 0.5},
	} {
		if _, err := MakeVerdict("x", bad, 0, 0, false, 1); err == nil {
			t.Errorf("MakeVerdict(%v) succeeded, want ErrNonFiniteProbs", bad)
		}
	}
	if _, err := MakeVerdict("x", []float64{0.25, 0.75}, 1, 0, true, 1); err != nil {
		t.Fatalf("finite probs rejected: %v", err)
	}
}

// TestVerdictHasGraphWire is the regression test for the omitempty bug:
// a single-block program genuinely has zero edges, but `omitempty` on
// Edges erased the field, making "zero edges" indistinguishable from
// "no CFG summary" (vector-path verdicts). The wire form now always
// carries blocks/edges plus the explicit has_graph marker.
func TestVerdictHasGraphWire(t *testing.T) {
	_, ts := testServer(t, Config{})

	// A straight-line program: one block, zero edges.
	resp, body := postClassify(t, ts, "text/plain", "movi r0, 1\nret\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"has_graph":true`, `"edges":0`, `"blocks":1`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("classify verdict missing %s on the wire: %s", want, body)
		}
	}

	// The vector path has no CFG at all: has_graph false.
	vec := make([]float64, features.NumFeatures)
	reqBody, _ := json.Marshal(vectorRequest{Vector: vec})
	vresp, err := http.Post(ts.URL+"/v1/classify/vector", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(vresp.Body)
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("vector status %d, body %s", vresp.StatusCode, buf.Bytes())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"has_graph":false`)) {
		t.Errorf("vector verdict should carry has_graph:false: %s", buf.Bytes())
	}
}

// testCorpus builds a small labeled similarity corpus in scaled space.
// With testDetector's identity scaler, raw query vectors pass through
// unchanged, so tests can aim queries at known cluster centers.
func testCorpus(t *testing.T) *index.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vecs, labels := synth.LabeledVectors(rng, 600, features.NumFeatures)
	c, err := index.BuildCorpus(index.HNSWConfig{Seed: 7}, vecs, labels, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func postSimilar(t *testing.T, ts *httptest.Server, path, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestSimilarWithoutIndex: a replica started without -index answers 501
// (≥500, so the gateway's retry ladder tries another replica).
func TestSimilarWithoutIndex(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postSimilar(t, ts, "/v1/similar", "application/json", `{"vector":[0.5]}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501; body %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("-index")) {
		t.Fatalf("error should tell the operator how to load an index: %s", body)
	}
}

// TestSimilarVectorQuery drives the vector form end to end: attribution
// agrees with the exact nearest labels, ?k= is honored, an indexed
// vector comes back as a near-duplicate, and bad parameters are 400s.
func TestSimilarVectorQuery(t *testing.T) {
	c := testCorpus(t)
	_, ts := testServer(t, Config{Corpus: c})

	// Query at an indexed point: its own label must win attribution and
	// the near-duplicate radar must fire.
	store := c.HNSW.Store()
	q := store.Vec(42)
	reqBody, _ := json.Marshal(similarRequest{Name: "probe", Vector: q})
	resp, body := postSimilar(t, ts, "/v1/similar?k=3", "application/json", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var sr SimilarResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if sr.Name != "probe" || sr.K != 3 || len(sr.Hits) != 3 {
		t.Fatalf("k not honored: %+v", sr)
	}
	if sr.Hits[0].ID != 42 || sr.Hits[0].Dist != 0 {
		t.Fatalf("indexed vector should be its own nearest hit: %+v", sr.Hits[0])
	}
	if !sr.NearDuplicate {
		t.Fatalf("exact indexed vector not flagged near-duplicate: %+v", sr)
	}
	if sr.Family == "" || sr.Votes < 1 {
		t.Fatalf("attribution missing: %+v", sr)
	}
	if sr.Triage.Flagged {
		t.Fatalf("on-manifold query triage-flagged: %+v", sr.Triage)
	}

	// Default k.
	resp, body = postSimilar(t, ts, "/v1/similar", "application/json", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	sr = SimilarResponse{}
	json.Unmarshal(body, &sr)
	if sr.K != similarDefaultK {
		t.Fatalf("default k = %d, want %d", sr.K, similarDefaultK)
	}

	// Bad inputs.
	for name, tc := range map[string]struct {
		path, body string
		want       int
	}{
		"bad-k":        {"/v1/similar?k=zero", string(reqBody), http.StatusBadRequest},
		"negative-k":   {"/v1/similar?k=-2", string(reqBody), http.StatusBadRequest},
		"empty":        {"/v1/similar", `{}`, http.StatusBadRequest},
		"wrong-dim":    {"/v1/similar", `{"vector":[1,2,3]}`, http.StatusBadRequest},
		"invalid-json": {"/v1/similar", `{"vector":`, http.StatusBadRequest},
	} {
		resp, body := postSimilar(t, ts, tc.path, "application/json", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d; body %s", name, resp.StatusCode, tc.want, body)
		}
	}
}

// TestSimilarProgramQuery posts raw assembly: the program is vectorized
// through the shared detector pipeline before the index lookup.
func TestSimilarProgramQuery(t *testing.T) {
	_, ts := testServer(t, Config{Corpus: testCorpus(t)})
	resp, body := postSimilar(t, ts, "/v1/similar?k=7", "text/plain", validProgram)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var sr SimilarResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) != 7 {
		t.Fatalf("got %d hits, want 7", len(sr.Hits))
	}
	// A 4-instruction toy program sits far from every synthetic family
	// cluster: exactly what triage exists to flag.
	if !sr.Triage.Flagged {
		t.Fatalf("off-manifold program not triage-flagged: %+v", sr.Triage)
	}
	resp, _ = postSimilar(t, ts, "/v1/similar", "text/plain", "not a program")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable program: status %d, want 400", resp.StatusCode)
	}
}

// TestTriageFlagsGEASplices is the adversarial acceptance test: verdicts
// for GEA-spliced programs (a malware body embedded into a benign
// target's CFG behind an opaque predicate, per the paper's Fig. 4) must
// score strictly higher triage distances than verdicts for the clean
// held-out programs they were built from — the splice moves the feature
// vector off the corpus manifold, which is exactly the signal the triage
// threshold is calibrated to catch.
func TestTriageFlagsGEASplices(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.NumBenign = 40
	cfg.NumMal = 120
	sys := core.New(cfg)
	if err := sys.BuildCorpusCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	corpus, err := sys.BuildCorpusIndex(index.HNSWConfig{}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Triage needs no trained weights — only the fitted scaler and the
	// labeled index — so an untrained net keeps the test fast.
	det := &core.Model{Scaler: sys.Scaler, Net: nn.PaperCNN(0), Extractor: sys.Extractor}
	_, ts := testServer(t, Config{Handle: core.NewHandle(det), Corpus: corpus})

	triageDist := func(progText string) float64 {
		t.Helper()
		resp, body := postClassify(t, ts, "text/plain", progText)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
		var v Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Triage == nil {
			t.Fatalf("verdict missing triage block: %s", body)
		}
		return v.Triage.Distance
	}

	// Held-out split: malware originals to splice, one benign target to
	// splice into.
	var malware []*synth.Sample
	var benign *synth.Sample
	for _, r := range sys.Test.Records {
		if r.Sample.Family == synth.Benign {
			if benign == nil {
				benign = r.Sample
			}
			continue
		}
		if len(malware) < 8 {
			malware = append(malware, r.Sample)
		}
	}
	if benign == nil || len(malware) < 4 {
		t.Fatalf("test split too small: benign=%v malware=%d", benign != nil, len(malware))
	}

	var clean, spliced []float64
	for _, m := range malware {
		clean = append(clean, triageDist(m.Prog.String()))
		merged, err := gea.Merge(m.Prog, benign.Prog)
		if err != nil {
			t.Fatalf("gea.Merge(%s): %v", m.Name, err)
		}
		spliced = append(spliced, triageDist(merged.String()))
	}
	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	mc, ms := median(clean), median(spliced)
	t.Logf("triage distance: clean median %.4f, GEA-spliced median %.4f (threshold %.4f)",
		mc, ms, corpus.Triage.Threshold)
	if ms <= mc {
		t.Fatalf("GEA splices should sit farther from the corpus manifold: spliced median %.4f ≤ clean median %.4f", ms, mc)
	}
	// And each splice scores higher than the clean program it embeds.
	higher := 0
	for i := range clean {
		if spliced[i] > clean[i] {
			higher++
		}
	}
	if higher*2 <= len(clean) {
		t.Fatalf("only %d/%d splices scored above their clean original", higher, len(clean))
	}
}
