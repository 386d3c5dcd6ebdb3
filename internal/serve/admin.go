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
// to keep it off the public listener. It is the only way a replica's
// model changes: retraining runs out of process, in cmd/retrain
// -swap-url, so the replica holds no retraining state.
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
