package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Chaos is the replica-side fault-injection surface: a set of runtime
// knobs the gateway harness flips over HTTP (POST /chaosz) or tests set
// directly. The zero value injects nothing. All knobs are atomics, so
// flipping them mid-load is race-free.
//
// Handler-level faults (slow, error-every, blackhole) fire in the
// classify handlers before the batcher sees the request — they model a
// misbehaving HTTP tier. The inference delay is different: it is applied
// inside each batcher engine, serialized per engine, so it
// models a heavier model and bounds the replica's throughput at
// 1/(delay) per engine regardless of host parallelism. The gateway
// scaling bench leans on that to demonstrate routing scalability with
// replica capacity pinned by service time rather than by host cores.
type Chaos struct {
	slowNs    atomic.Int64  // handler sleep per request
	inferNs   atomic.Int64  // serialized engine sleep per batch
	errEvery  atomic.Int64  // every Nth classify answers 500
	reqCount  atomic.Uint64 // requests seen by the error injector
	blackhole atomic.Bool   // hold classify requests until the client gives up
	injected  atomic.Uint64 // faults actually fired

	// Exit is invoked (in its own goroutine, after the response is
	// written) when a die request arrives. cmd/serve installs os.Exit to
	// simulate a crash; tests install a recorder. Nil ignores die.
	Exit func(code int)
}

// DieExitCode is the exit status of a chaos-killed replica — 128+SIGKILL,
// the same status a real `kill -9` produces.
const DieExitCode = 137

// SetSlow sets the handler-level per-request delay.
func (c *Chaos) SetSlow(d time.Duration) { c.slowNs.Store(int64(d)) }

// SetInferDelay sets the serialized per-batch engine delay.
func (c *Chaos) SetInferDelay(d time.Duration) { c.inferNs.Store(int64(d)) }

// SetErrorEvery makes every nth classify request fail with 500 (0
// disables).
func (c *Chaos) SetErrorEvery(n int) { c.errEvery.Store(int64(n)) }

// SetBlackhole holds classify requests open without answering.
func (c *Chaos) SetBlackhole(on bool) { c.blackhole.Store(on) }

// Clear resets every knob.
func (c *Chaos) Clear() {
	c.slowNs.Store(0)
	c.inferNs.Store(0)
	c.errEvery.Store(0)
	c.blackhole.Store(false)
}

// intercept applies handler-level faults to one classify request,
// reporting whether it already answered (or deliberately never will).
// Nil-safe: a server without chaos wiring pays one nil check.
func (c *Chaos) intercept(w http.ResponseWriter, r *http.Request) bool {
	if c == nil {
		return false
	}
	if c.blackhole.Load() {
		c.injected.Add(1)
		// Drain the body first: the server only starts the background
		// read that detects a client disconnect once the request body is
		// consumed, and without it this hold would outlive the client.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hold until the client hangs up
		w.WriteHeader(http.StatusServiceUnavailable)
		return true
	}
	if d := c.slowNs.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		select {
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
		}
	}
	if n := c.errEvery.Load(); n > 0 {
		if c.reqCount.Add(1)%uint64(n) == 0 {
			c.injected.Add(1)
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "chaos: injected failure"})
			return true
		}
	}
	return false
}

// chaosEngine decorates a BatchEngine with the serialized inference
// delay. One instance wraps each of the batcher's engines, so the sleep
// happens on the goroutine running the batch and gates that engine's
// batch rate.
type chaosEngine struct {
	inner BatchEngine
	c     *Chaos
}

func (e chaosEngine) delay() {
	if d := e.c.inferNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func (e chaosEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	e.delay()
	return e.inner.ProbsBatch(xs, dst)
}

func (e chaosEngine) SafeProbs(x []float64) ([]float64, error) {
	e.delay()
	return e.inner.SafeProbs(x)
}

// ModelVersion forwards version attribution through the decorator so a
// chaos-wrapped handle engine still stamps verdicts.
func (e chaosEngine) ModelVersion() uint64 { return engineVersion(e.inner) }

// chaosRequest is the POST /chaosz wire format. Pointer fields
// distinguish "leave unchanged" from an explicit zero; Clear applies
// first, so {"clear":true,"slow_ms":5} resets everything and then sets
// one knob.
type chaosRequest struct {
	Clear      bool  `json:"clear,omitempty"`
	SlowMs     *int  `json:"slow_ms,omitempty"`
	InferMs    *int  `json:"infer_ms,omitempty"`
	ErrorEvery *int  `json:"error_every,omitempty"`
	Blackhole  *bool `json:"blackhole,omitempty"`
	Die        bool  `json:"die,omitempty"`
}

// chaosState is the GET /chaosz response.
type chaosState struct {
	SlowMs     int64  `json:"slow_ms"`
	InferMs    int64  `json:"infer_ms"`
	ErrorEvery int64  `json:"error_every"`
	Blackhole  bool   `json:"blackhole"`
	Injected   uint64 `json:"injected"`
}

// handleChaos serves the fault-injection control endpoint (registered
// only when the server was built with a Chaos).
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	c := s.cfg.Chaos
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, chaosState{
			SlowMs:     c.slowNs.Load() / int64(time.Millisecond),
			InferMs:    c.inferNs.Load() / int64(time.Millisecond),
			ErrorEvery: c.errEvery.Load(),
			Blackhole:  c.blackhole.Load(),
			Injected:   c.injected.Load(),
		})
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req chaosRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Clear {
		c.Clear()
	}
	if req.SlowMs != nil {
		c.SetSlow(time.Duration(*req.SlowMs) * time.Millisecond)
	}
	if req.InferMs != nil {
		c.SetInferDelay(time.Duration(*req.InferMs) * time.Millisecond)
	}
	if req.ErrorEvery != nil {
		c.SetErrorEvery(*req.ErrorEvery)
	}
	if req.Blackhole != nil {
		c.SetBlackhole(*req.Blackhole)
	}
	if req.Die && c.Exit != nil {
		c.injected.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"status": "dying"})
		// Give the response a moment to flush, then crash.
		go func() {
			time.Sleep(25 * time.Millisecond)
			c.Exit(DieExitCode)
		}()
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
