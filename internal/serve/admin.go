package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"advmal/internal/core"
)

// maxModelBody bounds POST /admin/swap payloads. A serialized paper-CNN
// snapshot is well under a megabyte; 32 MiB leaves headroom for larger
// architectures without letting a stray upload exhaust memory.
const maxModelBody = 32 << 20

// modelInfo is the GET /v1/model response: which snapshot is serving and
// how many hot swaps have been installed. The gateway scrapes it per
// replica after the ready probe so /backends can report fleet skew.
type modelInfo struct {
	Version uint64 `json:"version"`
	Swaps   uint64 `json:"swaps"`
}

// swapResponse is the POST /admin/swap response.
type swapResponse struct {
	OldVersion uint64 `json:"old_version"`
	NewVersion uint64 `json:"new_version"`
}

// handleModel reports the serving snapshot's version. Always mounted —
// it is read-only and the gateway depends on it.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelInfo{Version: s.h.Version(), Swaps: s.h.Swaps()})
}

// handleSwap accepts a model gob (the core.Save format), loads it, and
// installs it into the serving handle with the live snapshot's feature
// extractor. In-flight batches finish on the old snapshot; everything
// admitted after the swap scores on the new one. Mounted only with
// Config.Admin — the endpoint is mutating and deployments are expected
// to keep it off the public listener.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelBody))
	if err != nil {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading model: %w", err))
		return
	}
	m, err := core.LoadModel(bytes.NewReader(body))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding model: %w", err))
		return
	}
	// Extraction is model-independent: the new snapshot keeps the live
	// one's warm feature cache, and /metrics keeps counting on it.
	m.Extractor = s.h.Current().Extractor
	old, err := s.h.Swap(m)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("installing model: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, swapResponse{OldVersion: old.Version, NewVersion: m.Version})
}

// GateStatus reports one canary gate's last evaluation: the live and
// candidate readings it compared and whether the candidate passed.
type GateStatus struct {
	// Name identifies the gate: "accuracy", "fnr", "fpr", or
	// "evasion:<attack>".
	Name string `json:"name"`
	// Live and Candidate are the gated metric's readings on the holdout
	// (higher-is-worse for fnr/fpr/evasion, higher-is-better for
	// accuracy).
	Live      float64 `json:"live"`
	Candidate float64 `json:"candidate"`
	// Margin is how far the candidate sat from the gate's threshold —
	// positive is headroom, negative is the violation size.
	Margin float64 `json:"margin"`
	// Pass reports whether this gate admitted the candidate.
	Pass bool `json:"pass"`
}

// LifecycleStatus is the online-retraining loop's published state: cycle
// counters plus the gate-by-gate verdict of the most recent canary
// evaluation. The retraining loop publishes it via SetLifecycle; the
// server folds it into /metrics.
type LifecycleStatus struct {
	CanaryRuns   uint64       `json:"canary_runs"`
	CanaryPassed uint64       `json:"canary_passed"`
	CanaryFailed uint64       `json:"canary_failed"`
	Gates        []GateStatus `json:"gates,omitempty"`
}

// SetLifecycle publishes the retraining loop's latest status for
// /metrics. Safe to call concurrently with serving traffic.
func (s *Server) SetLifecycle(st *LifecycleStatus) { s.lc.Store(st) }

// writeLifecycleText appends the canary series to a /metrics response.
// No lifecycle published means no series — scrapers distinguish "no
// retraining loop" from "loop with zero runs".
func (s *Server) writeLifecycleText(w io.Writer) {
	st := s.lc.Load()
	if st == nil {
		return
	}
	fmt.Fprintf(w, "# HELP advmal_canary_runs_total Candidate canary evaluations performed.\n")
	fmt.Fprintf(w, "# TYPE advmal_canary_runs_total counter\n")
	fmt.Fprintf(w, "advmal_canary_runs_total %d\n", st.CanaryRuns)
	fmt.Fprintf(w, "advmal_canary_passed_total %d\n", st.CanaryPassed)
	fmt.Fprintf(w, "advmal_canary_failed_total %d\n", st.CanaryFailed)
	if len(st.Gates) > 0 {
		fmt.Fprintf(w, "# HELP advmal_canary_gate Last canary's per-gate verdict (1 pass, 0 fail).\n")
		fmt.Fprintf(w, "# TYPE advmal_canary_gate gauge\n")
		for _, g := range st.Gates {
			pass := 0
			if g.Pass {
				pass = 1
			}
			fmt.Fprintf(w, "advmal_canary_gate{gate=%q} %d\n", g.Name, pass)
		}
		fmt.Fprintf(w, "# HELP advmal_canary_gate_margin Last canary's per-gate margin (negative = violation).\n")
		fmt.Fprintf(w, "# TYPE advmal_canary_gate_margin gauge\n")
		for _, g := range st.Gates {
			fmt.Fprintf(w, "advmal_canary_gate_margin{gate=%q} %g\n", g.Name, g.Margin)
		}
	}
}
