package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/nn"
)

// swapModel builds a complete snapshot over an identity scaler and the
// given network seed — distinct seeds give distinct untrained weights,
// which is all version attribution needs.
func swapModel(seed int64) *core.Model {
	min := make([]float64, features.NumFeatures)
	max := make([]float64, features.NumFeatures)
	for i := range max {
		max[i] = 1
	}
	return &core.Model{
		Scaler:    &features.Scaler{Min: min, Max: max},
		Net:       nn.PaperCNN(seed),
		Extractor: features.NewExtractor(64),
	}
}

// TestAdminSwap covers the admin surface end to end: /v1/model reports
// the serving version, a valid model gob swaps in with correct version
// bookkeeping, garbage is a 400, and without Config.Admin the mutating
// endpoint does not exist.
func TestAdminSwap(t *testing.T) {
	h := core.NewHandle(swapModel(0))
	_, ts := testServer(t, Config{Handle: h, Admin: true})

	var info struct {
		Version uint64 `json:"version"`
		Swaps   uint64 `json:"swaps"`
	}
	getModel := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/model: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	getModel()
	if info.Version != 1 || info.Swaps != 0 {
		t.Fatalf("fresh server: %+v, want version 1 swaps 0", info)
	}

	var blob bytes.Buffer
	if err := swapModel(5).Save(&blob); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/admin/swap", "application/octet-stream", bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sr swapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.OldVersion != 1 || sr.NewVersion != 2 {
		t.Fatalf("swap: status %d response %+v, want 200 {1 2}", resp.StatusCode, sr)
	}
	getModel()
	if info.Version != 2 || info.Swaps != 1 {
		t.Fatalf("after swap: %+v, want version 2 swaps 1", info)
	}

	// A corrupt payload must be rejected without touching the handle.
	resp, err = http.Post(ts.URL+"/admin/swap", "application/octet-stream", strings.NewReader("not a model gob"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage swap: status %d, want 400", resp.StatusCode)
	}
	if h.Version() != 2 || h.Swaps() != 1 {
		t.Fatalf("garbage swap disturbed the handle: version %d swaps %d", h.Version(), h.Swaps())
	}

	// Admin off: the mutating endpoint is absent, the read-only one stays.
	_, tsRO := testServer(t, Config{Handle: core.NewHandle(swapModel(0))})
	resp, err = http.Post(tsRO.URL+"/admin/swap", "application/octet-stream", bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("swap without -admin: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(tsRO.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/model without -admin: status %d, want 200", resp.StatusCode)
	}
}

// TestSwapMetrics pins the swap series on /metrics:
// advmal_model_version tracks the handle, advmal_model_swaps_total
// counts installs, and no canary series appears — retraining runs out of
// process (cmd/retrain), so a replica has no lifecycle state to publish.
func TestSwapMetrics(t *testing.T) {
	h := core.NewHandle(swapModel(0))
	_, ts := testServer(t, Config{Handle: h})

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	text := scrape()
	for _, want := range []string{"advmal_model_version 1", "advmal_model_swaps_total 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "advmal_canary_") {
		t.Error("/metrics shows canary series on a replica")
	}

	if _, err := h.Swap(swapModel(9)); err != nil {
		t.Fatal(err)
	}
	text = scrape()
	for _, want := range []string{
		"advmal_model_version 2",
		"advmal_model_swaps_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestServerSwapUnderLoad is the zero-drop hot-swap test at the HTTP
// layer: concurrent /v1/classify/vector traffic while the handle swaps
// between two networks. Every response must be 200, and each verdict's
// model_version must name weights that bitwise-reproduce its probs —
// raw rows are scaled and scored under ONE pinned snapshot, so a probs
// vector from one net stamped with the other net's version would be a
// mixed-version wire result. (encoding/json round-trips float64 exactly,
// so bitwise comparison across the wire is sound.)
func TestServerSwapUnderLoad(t *testing.T) {
	nets := []*nn.Network{nn.PaperCNN(1), nn.PaperCNN(2)}
	vec := make([]float64, features.NumFeatures)
	for i := range vec {
		vec[i] = 0.25
	}
	// Identity scaler: raw == scaled, so a per-row workspace on vec is
	// the net's answer directly (the batch kernels are bit-identical to
	// it — see internal/nn/batch.go).
	oracles := make([][]float64, len(nets))
	for i, net := range nets {
		oracles[i] = append([]float64(nil), net.CloneShared().WS().Probs(vec)...)
	}
	if oracles[0][0] == oracles[1][0] {
		t.Fatal("oracle networks agree; the test cannot attribute results")
	}
	// Version v serves nets[(v+1)%2]: v1 is nets[0], each swap i installs
	// nets[(i+1)%2] at version i+2.
	oracleFor := func(version uint64) []float64 { return oracles[(version+1)%2] }

	h := core.NewHandle(&core.Model{
		Scaler:    swapModel(0).Scaler,
		Net:       nets[0],
		Extractor: features.NewExtractor(64),
	})
	_, ts := testServer(t, Config{Handle: h, QueueDepth: 256})

	body, _ := json.Marshal(vectorRequest{Name: "swap-load", Vector: vec})
	const (
		readers   = 6
		perReader = 120
		swaps     = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				resp, err := http.Post(ts.URL+"/v1/classify/vector", "application/json", bytes.NewReader(body))
				if err != nil {
					fail(err)
					return
				}
				var v Verdict
				derr := json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(errStatus(resp.StatusCode))
					return
				}
				if derr != nil {
					fail(derr)
					return
				}
				if v.ModelVersion == 0 {
					fail(errNoVersion)
					return
				}
				want := oracleFor(v.ModelVersion)
				if len(v.Probs) != len(want) {
					fail(errMixed(v, want))
					return
				}
				for j := range want {
					if v.Probs[j] != want[j] {
						fail(errMixed(v, want))
						return
					}
				}
			}
		}()
	}

	lastVer := h.Version()
	for i := 0; i < swaps; i++ {
		m := &core.Model{
			Scaler:    swapModel(0).Scaler,
			Net:       nets[(i+1)%len(nets)],
			Extractor: features.NewExtractor(64),
		}
		if _, err := h.Swap(m); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if v := h.Version(); v != lastVer+1 {
			t.Fatalf("swap %d: version %d, want %d", i, v, lastVer+1)
		}
		lastVer++
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if h.Version() != uint64(1+swaps) || h.Swaps() != swaps {
		t.Fatalf("final version %d swaps %d, want %d and %d", h.Version(), h.Swaps(), 1+swaps, swaps)
	}
}

func errStatus(code int) error {
	return fmt.Errorf("non-200 response during hot swap: %d %s", code, http.StatusText(code))
}

var errNoVersion = fmt.Errorf("verdict carries no model_version")

func errMixed(v Verdict, want []float64) error {
	return fmt.Errorf("verdict probs %v do not match version %d's oracle %v (mixed-version wire result)",
		v.Probs, v.ModelVersion, want)
}
