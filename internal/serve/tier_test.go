package serve

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"advmal/internal/core"
	"advmal/internal/ir"
	"advmal/internal/nn"
)

func TestTopTwoMargin(t *testing.T) {
	for _, tc := range []struct {
		p    []float64
		want float64
	}{
		{[]float64{0.9, 0.1}, 0.8},
		{[]float64{0.1, 0.9}, 0.8},
		{[]float64{0.5, 0.5}, 0},
		{[]float64{0.2, 0.5, 0.3}, 0.2},
		{[]float64{0.7, 0.1, 0.2}, 0.5},
		{[]float64{1}, 0},
		{nil, 0},
	} {
		if got := topTwoMargin(tc.p); !closeTo(got, tc.want) {
			t.Errorf("topTwoMargin(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func closeTo(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

// scriptedEngine answers each row with a fixed probability pair keyed by
// the row's first element, and records what it was asked.
type scriptedEngine struct {
	probs map[float64][]float64
	seen  []float64
}

func (e *scriptedEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		e.seen = append(e.seen, x[0])
		out[i] = append([]float64(nil), e.probs[x[0]]...)
	}
	return out
}

func (e *scriptedEngine) SafeProbs(x []float64) ([]float64, error) {
	e.seen = append(e.seen, x[0])
	p, ok := e.probs[x[0]]
	if !ok {
		return nil, errors.New("scripted fault")
	}
	return append([]float64(nil), p...), nil
}

// TestTieredEscalation: confident rows keep the bulk answer, borderline
// rows are overwritten with the precise engine's answer, and the tier
// counters account for every row exactly once.
func TestTieredEscalation(t *testing.T) {
	bulk := &scriptedEngine{probs: map[float64][]float64{
		1: {0.95, 0.05}, // confident: stays bulk
		2: {0.55, 0.45}, // borderline: escalates
		3: {0.05, 0.95}, // confident
		4: {0.45, 0.55}, // borderline
	}}
	precise := &scriptedEngine{probs: map[float64][]float64{
		2: {0.99, 0.01},
		4: {0.01, 0.99},
	}}
	m := NewMetrics()
	e := newTieredEngine(bulk, precise, 0.2, m)

	xs := [][]float64{{1}, {2}, {3}, {4}}
	out := e.ProbsBatch(xs, nil)
	if len(out) != 4 {
		t.Fatalf("rows = %d", len(out))
	}
	if out[0][0] != 0.95 || out[2][1] != 0.95 {
		t.Errorf("confident rows lost bulk answers: %v", out)
	}
	if out[1][0] != 0.99 || out[3][1] != 0.99 {
		t.Errorf("borderline rows not overwritten by precise: %v", out)
	}
	if len(precise.seen) != 2 || precise.seen[0] != 2 || precise.seen[1] != 4 {
		t.Errorf("precise saw %v, want [2 4]", precise.seen)
	}
	if b, esc := m.TierBulk.Load(), m.TierEscalated.Load(); b != 2 || esc != 2 {
		t.Errorf("tier counters = %d bulk / %d escalated, want 2/2", b, esc)
	}

	// Second batch reuses scratch without cross-batch leakage.
	out = e.ProbsBatch([][]float64{{2}}, out[:0])
	if out[0][0] != 0.99 {
		t.Errorf("second batch: %v", out)
	}
}

// TestTieredSafeProbs: the per-row fallback escalates on both borderline
// margins and bulk-side faults.
func TestTieredSafeProbs(t *testing.T) {
	bulk := &scriptedEngine{probs: map[float64][]float64{
		1: {0.9, 0.1},
		2: {0.5, 0.5},
	}}
	precise := &scriptedEngine{probs: map[float64][]float64{
		2: {0.8, 0.2},
		3: {0.7, 0.3},
	}}
	m := NewMetrics()
	e := newTieredEngine(bulk, precise, 0.2, m)

	if p, err := e.SafeProbs([]float64{1}); err != nil || p[0] != 0.9 {
		t.Errorf("confident row: %v %v", p, err)
	}
	if p, err := e.SafeProbs([]float64{2}); err != nil || p[0] != 0.8 {
		t.Errorf("borderline row not escalated: %v %v", p, err)
	}
	// Row 3 faults in bulk (unknown key) and must fall through.
	if p, err := e.SafeProbs([]float64{3}); err != nil || p[0] != 0.7 {
		t.Errorf("faulting row not escalated: %v %v", p, err)
	}
	if b, esc := m.TierBulk.Load(), m.TierEscalated.Load(); b != 1 || esc != 2 {
		t.Errorf("tier counters = %d/%d, want 1/2", b, esc)
	}
}

// calibratedDetector is testDetector plus a calibration pass over random
// in-box vectors, so the quantized tier can compile without training.
func calibratedDetector(t *testing.T) *core.Model {
	t.Helper()
	det := testDetector()
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, 64)
	for i := range xs {
		x := make([]float64, det.Net.InputDim())
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
	}
	calib, err := nn.Calibrate(det.Net, xs)
	if err != nil {
		t.Fatal(err)
	}
	det.Calib = calib
	return det
}

// TestServerQuantizeRequiresCalibration: Quantize on a detector without
// calibration ranges must fail server construction, not serve garbage.
func TestServerQuantizeRequiresCalibration(t *testing.T) {
	if _, err := New(Config{Handle: core.NewHandle(testDetector()), Quantize: true}); !errors.Is(err, nn.ErrNoCalibration) {
		t.Fatalf("New = %v, want ErrNoCalibration", err)
	}
}

// TestServerQuantizedTiers drives the HTTP path through both tiers. An
// untrained network answers near-uniform probabilities, so with the
// default band every row escalates — and must then match the float
// detector's offline answer exactly. With escalation disabled the same
// traffic stays on the bulk tier. Both tiers surface their row counts
// on /metrics.
func TestServerQuantizedTiers(t *testing.T) {
	for _, tc := range []struct {
		name     string
		band     float64
		wantTier string
	}{
		{"escalating", 0, "escalated"},
		{"pure-bulk", -1, "bulk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := calibratedDetector(t)
			s, ts := testServer(t, Config{Handle: core.NewHandle(det), Quantize: true, Band: tc.band})
			resp, body := postClassify(t, ts, "text/plain", validProgram)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, body %s", resp.StatusCode, body)
			}
			if tc.wantTier == "escalated" {
				// Escalated rows carry float-engine answers: the verdict
				// confidence must match the offline float classify bitwise.
				prog, err := ir.Parse(validProgram)
				if err != nil {
					t.Fatal(err)
				}
				_, probs, err := det.Classify(prog)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(body), fmt.Sprintf("%v", nn.Argmax(probs))) {
					t.Logf("verdict body: %s", body)
				}
			}
			mresp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(mresp.Body)
			mresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			text := string(raw)
			want := fmt.Sprintf("advmal_tier_rows_total{tier=%q} 1", tc.wantTier)
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %q:\n%s", want, grepLines(text, "tier"))
			}
			other := "bulk"
			if tc.wantTier == "bulk" {
				other = "escalated"
			}
			unwanted := fmt.Sprintf("advmal_tier_rows_total{tier=%q} 0", other)
			if !strings.Contains(text, unwanted) {
				t.Errorf("metrics missing %q:\n%s", unwanted, grepLines(text, "tier"))
			}
			_ = s
		})
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
