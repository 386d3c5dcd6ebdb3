package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"advmal/internal/index"
	"advmal/internal/wire"
)

// similarRequest is the JSON request body for /v1/similar: a program
// (assembly text, like /v1/classify) or a raw unscaled feature vector.
// Raw assembly with a non-JSON content type is also accepted.
type similarRequest struct {
	Name    string    `json:"name,omitempty"`
	Program string    `json:"program,omitempty"`
	Vector  []float64 `json:"vector,omitempty"`
}

// SimilarResponse is the /v1/similar response: the k nearest labeled
// corpus neighbors, the majority-vote family attribution, the
// near-duplicate verdict, and the triage score.
type SimilarResponse struct {
	Name string `json:"name,omitempty"`
	// K echoes the effective neighbor count (≤ requested when the
	// corpus is smaller).
	K int `json:"k"`
	// Hits lists the nearest corpus entries, closest first.
	Hits []index.Hit `json:"hits"`
	// Family is the majority label among the hits (ties go to the
	// nearer label); Votes is its count.
	Family string `json:"family"`
	Votes  int    `json:"votes"`
	// NearDuplicate reports that the nearest neighbor is within the
	// corpus's duplicate radius — this exact sample (up to feature
	// identity) is already known.
	NearDuplicate bool `json:"near_duplicate"`
	// Triage scores the query's distance to the corpus manifold.
	Triage index.TriageInfo `json:"triage"`
}

// similarDefaultK and similarMaxK bound the ?k= query parameter.
const (
	similarDefaultK = 5
	similarMaxK     = 100
)

// handleSimilar answers k-NN family attribution queries over the loaded
// similarity corpus. Accepts the same program forms as /v1/classify
// plus a raw-vector JSON form; ?k= selects the neighbor count.
func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Chaos.intercept(w, r) {
		return
	}
	corpus := s.cfg.Corpus
	if corpus == nil {
		s.fail(w, http.StatusNotImplemented,
			fmt.Errorf("no similarity index loaded (start serve with -index)"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	k := similarDefaultK
	if raw := r.URL.Query().Get("k"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad k %q: want a positive integer", raw))
			return
		}
		k = parsed
		if k > similarMaxK {
			k = similarMaxK
		}
	}
	contentType := r.Header.Get("Content-Type")
	name, text, err := wire.ProgramText(body, contentType)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// A JSON body without a program is the raw-vector form.
	var req similarRequest
	if len(text) == 0 && wire.IsJSON(contentType) {
		if err := json.Unmarshal(body, &req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		if req.Vector == nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("request needs a program or a vector"))
			return
		}
	}

	// Similarity queries are served entirely on one snapshot: resolve the
	// handle once and use that model's extractor + scaler for the query.
	m := s.h.Current()
	raw := req.Vector
	if len(text) > 0 {
		x, err := m.Extractor.ExtractText(text)
		if err != nil {
			s.fail(w, extractStatus(err), err)
			return
		}
		raw = x.Vec[:]
	} else if err := admit(raw); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	vec, err := m.Scaler.Transform(raw)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	s.metrics.Similar.Add(1)
	hits, err := corpus.Search(vec, k)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("index search: %w", err))
		return
	}
	family, votes := index.Attribution(hits)
	ti := corpus.Triage.Score(hits)
	if ti.Flagged {
		s.metrics.TriageFlagged.Add(1)
	}
	writeJSON(w, http.StatusOK, SimilarResponse{
		Name:          name,
		K:             len(hits),
		Hits:          hits,
		Family:        family,
		Votes:         votes,
		NearDuplicate: hits[0].Dist <= corpus.DupEps,
		Triage:        ti,
	})
}
