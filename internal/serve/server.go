package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/index"
	"advmal/internal/ir"
	"advmal/internal/wire"
)

// Config configures a Server. Handle is required; everything else has
// the default noted on its field.
type Config struct {
	// Handle is the serving pointer: the server classifies on whatever
	// Model snapshot the handle currently holds, and a Swap installs a
	// new snapshot with zero dropped requests. Required.
	Handle *core.Handle
	// Admin mounts the mutating control surface: POST /admin/swap
	// accepts a model gob and hot-swaps it into the handle. Off by
	// default — the read-only GET /v1/model endpoint is always mounted.
	Admin bool
	// BatchSize caps the micro-batcher's batches (see BatcherConfig).
	// Default 64.
	BatchSize int
	// QueueDepth bounds admission. Default 1024.
	QueueDepth int
	// Workers is the batcher's engine count: how many batches can run at
	// once. Default GOMAXPROCS.
	Workers int
	// RequestTimeout bounds each request's time in queue + inference.
	// Default 5s.
	RequestTimeout time.Duration
	// MaxBody bounds request bodies. Default 1 MiB.
	MaxBody int64
	// NewEngine overrides the batcher's inference engines; nil builds
	// handle-bound engines that re-bind to the current Model snapshot at
	// each batch. Tests use it to inject fakes. Note the batcher feeds
	// engines RAW (unscaled) rows — the default engine scales them under
	// its pinned snapshot; a custom engine must cope with raw input.
	NewEngine func() BatchEngine
	// Corpus, when non-nil, arms the similarity layer: /v1/similar
	// (k-NN family attribution over the labeled training corpus) and
	// the triage block on classify verdicts. Load one with index.Load
	// or build it with core.System.BuildCorpusIndex.
	Corpus *index.Corpus
	// Chaos, when non-nil, arms the fault-injection surface: the
	// /chaosz control endpoint, handler-level slow/error/blackhole
	// faults, and the serialized engine inference delay. Production
	// deployments leave it nil.
	Chaos *Chaos
}

// Server is the detection service: HTTP handlers over a Batcher over a
// core.Handle. Create with New, expose via Handler, stop with Drain.
type Server struct {
	cfg     Config
	h       *core.Handle
	batcher *Batcher
	metrics *Metrics
	ready   atomic.Bool
	mux     *http.ServeMux
}

// New builds the server and its batcher.
func New(cfg Config) (*Server, error) {
	h := cfg.Handle
	if h == nil {
		return nil, fmt.Errorf("serve: Config.Handle is required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	s := &Server{cfg: cfg, h: h, metrics: NewMetrics()}
	// Stamp the serving head width for the per-family verdict series.
	// Swapped-in candidates keep the width (cmd/retrain's lifecycle
	// trainer preserves the live head), so stamping once is sound.
	s.metrics.Classes = h.Current().Net.NumClasses()
	newEngine := cfg.NewEngine
	if newEngine == nil {
		newEngine = func() BatchEngine { return &handleEngine{h: h} }
	}
	if cfg.Chaos != nil {
		inner := newEngine
		chaos := cfg.Chaos
		newEngine = func() BatchEngine { return chaosEngine{inner: inner(), c: chaos} }
	}
	s.batcher = NewBatcher(BatcherConfig{
		Workers:    cfg.Workers,
		BatchSize:  cfg.BatchSize,
		QueueDepth: cfg.QueueDepth,
		InputDim:   features.NumFeatures,
		NewEngine:  newEngine,
		Metrics:    s.metrics,
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/classify", s.handleClassify)
	s.mux.HandleFunc("POST /v1/classify/vector", s.handleVector)
	s.mux.HandleFunc("POST /v1/similar", s.handleSimilar)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
	if cfg.Admin {
		s.mux.HandleFunc("POST /admin/swap", s.handleSwap)
	}
	if cfg.Chaos != nil {
		s.mux.HandleFunc("/chaosz", s.handleChaos)
	}
	s.ready.Store(true)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// NotReady flips /readyz to 503 so load balancers stop routing here.
// Called first in the drain sequence, before the listener stops.
func (s *Server) NotReady() { s.ready.Store(false) }

// Drain executes the batcher side of graceful shutdown: stop admission,
// flush everything queued, and return the final accounting. The caller
// is expected to have stopped the HTTP listener first (http.Server.
// Shutdown waits for in-flight handlers, which in turn wait on the
// batcher — so the order is NotReady, Shutdown, Drain).
func (s *Server) Drain() BatcherStats {
	s.ready.Store(false)
	s.batcher.Close()
	return s.batcher.Stats()
}

// vectorRequest is the JSON request body for /v1/classify/vector: a raw
// (unscaled) Table II feature vector.
type vectorRequest struct {
	Name   string    `json:"name,omitempty"`
	Vector []float64 `json:"vector"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// handleClassify accepts one program — as raw assembly text, or as JSON
// {"name": ..., "program": ...} when Content-Type is application/json —
// and answers with a Verdict.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Chaos.intercept(w, r) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	name, text, err := wire.ProgramText(body, r.Header.Get("Content-Type"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// Extract RAW features only — scaling happens inside the batch
	// engine under whichever snapshot scores the row, so the verdict is
	// attributable to exactly one model version across a hot swap. The
	// extraction is keyed by the program text alone, so a cached one is
	// valid under any snapshot.
	x, err := s.h.Current().Extractor.ExtractText(text)
	if err != nil {
		s.fail(w, extractStatus(err), err)
		return
	}
	s.classify(w, r, name, x.Vec[:], x.Blocks, x.Edges, true)
}

// extractStatus maps a program that could not be extracted to its
// status: text that does not parse is a 400, a program that parses but
// has no recoverable CFG a 422.
func extractStatus(err error) int {
	if errors.Is(err, ir.ErrParse) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// handleVector accepts a raw feature vector and answers with a Verdict
// (no CFG summary). Scaling happens in the batch engine; the batcher's
// admission check maps a wrong dimension to 400.
func (s *Server) handleVector(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Chaos.intercept(w, r) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req vectorRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	s.classify(w, r, req.Name, req.Vector, 0, 0, false)
}

// maxFeature bounds the magnitude of an admissible raw component. The
// largest of the 23 features is the edge count, at most the square of
// ir.MaxProgramLen nodes (centralities are normalised, path lengths stay
// below the node count), so anything beyond it, or not finite, was written
// by hand — and far enough out it overflows the network to NaN, which ReLU
// turns into 0 and the softmax into a verdict of 0.5.
const maxFeature = float64(ir.MaxProgramLen) * ir.MaxProgramLen

// admit rejects a raw vector no program could produce: a component
// beyond maxFeature, or not finite.
func admit(vec []float64) error {
	for i, v := range vec {
		if !(math.Abs(v) <= maxFeature) { // the negated form is true of NaN as well
			return fmt.Errorf("%w: component %d is %g", ErrBadInput, i, v)
		}
	}
	return nil
}

// classify submits a raw vector to the batcher and writes the verdict
// or the mapped admission/execution error.
func (s *Server) classify(w http.ResponseWriter, r *http.Request, name string, vec []float64, blocks, edges int, hasGraph bool) {
	if err := admit(vec); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	probs, ver, err := s.batcher.SubmitV(ctx, vec)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			s.fail(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, context.Canceled):
			// Client went away; status is moot but 499-style close.
			s.fail(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrBadInput):
			s.fail(w, http.StatusBadRequest, err)
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	if ver == 0 {
		// Engine not version-aware (custom NewEngine, e.g. test fakes):
		// fall back to the handle's version at response time.
		ver = s.h.Version()
	}
	v, err := MakeVerdict(name, probs, blocks, edges, hasGraph, ver)
	if err != nil {
		// Non-finite probabilities: a typed 500 with a clear message,
		// never a mid-response JSON encoder failure.
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	if c := s.cfg.Corpus; c != nil {
		// The corpus lives in scaled space; scale the raw query with the
		// current snapshot's scaler. Triage is advisory, so a scaling or
		// search failure just omits the block.
		if scaled, serr := s.h.Current().Scaler.Transform(vec); serr == nil {
			if hit, herr := c.Nearest(scaled); herr == nil {
				ti := c.Triage.Score([]index.Hit{hit})
				v.Triage = &ti
				if ti.Flagged {
					s.metrics.TriageFlagged.Add(1)
				}
			}
		}
	}
	s.metrics.Verdict(v.Class)
	writeJSON(w, http.StatusOK, v)
}

// readBody reads a bounded request body, mapping oversize to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBody))
		} else {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		}
		return nil, false
	}
	return body, true
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w, s.h.Current().Extractor.Stats())
	fmt.Fprintf(w, "# HELP advmal_model_version Version stamp of the model snapshot currently serving.\n")
	fmt.Fprintf(w, "# TYPE advmal_model_version gauge\n")
	fmt.Fprintf(w, "advmal_model_version %d\n", s.h.Version())
	fmt.Fprintf(w, "# HELP advmal_model_swaps_total Hot swaps installed since start.\n")
	fmt.Fprintf(w, "# TYPE advmal_model_swaps_total counter\n")
	fmt.Fprintf(w, "advmal_model_swaps_total %d\n", s.h.Swaps())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz reports routability. Both the explicit ready flag and the
// batcher's own drain state gate the 200: NotReady flips the flag before
// the listener stops, and checking Batcher.Draining() closes the other
// ordering — a batcher drained directly can never answer ready while
// SubmitV is already refusing with ErrDraining. Once /readyz has said
// 503, it never says 200 again within a drain (the regression test pins
// this ordering).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.batcher.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// fail writes the JSON error envelope and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	if s.metrics != nil {
		s.metrics.Errors.Add(1)
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
