package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"advmal/internal/pool"
)

// Admission and lifecycle errors. SubmitV returns exactly one of these
// (or the request context's error) — the server maps them to 429/503/504.
var (
	// ErrQueueFull is the fast-fail admission response: the bounded
	// queue is at its depth limit, so the request is rejected
	// immediately instead of waiting.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means Close has begun: the batcher no longer accepts
	// work but will finish everything already queued.
	ErrDraining = errors.New("serve: draining")
	// ErrBadInput means the submitted vector has the wrong dimension or,
	// from the server, a component no feature extractor could have produced.
	ErrBadInput = errors.New("serve: bad input vector")
)

// BatchEngine is the inference contract the batcher schedules onto: the
// batched fast path plus a recover-guarded per-row fallback used to
// isolate a poisoned row when a batch panics. The batcher calls an
// engine from one goroutine at a time, though not always the same one.
// *nn.Workspace satisfies it; tests substitute fakes.
type BatchEngine interface {
	ProbsBatch(xs [][]float64, dst [][]float64) [][]float64
	SafeProbs(x []float64) ([]float64, error)
}

// BatcherConfig configures a Batcher. Zero values select the defaults
// noted on each field.
type BatcherConfig struct {
	// Workers is the number of BatchEngines, and so of batches that can
	// execute at once. Default GOMAXPROCS.
	Workers int
	// BatchSize is the coalescing cap: no batch carries more requests
	// than this. Default 64.
	BatchSize int
	// Window is kept only because the frozen benchmark harness
	// (benchmark/layers.go) still sets it.
	//
	// Deprecated: ignored, the batcher never waits.
	Window time.Duration
	// QueueDepth bounds the request queue; a full queue fast-fails
	// SubmitV with ErrQueueFull. Default 1024.
	QueueDepth int
	// InputDim, when positive, validates vector length at SubmitV time.
	InputDim int
	// NewEngine builds each of the Workers engines. Required.
	NewEngine func() BatchEngine
	// Metrics, when non-nil, receives batch-size, queue-wait, and
	// inference-latency observations plus panic counts.
	Metrics *Metrics
}

// request is one queued classification.
type request struct {
	// ctx is the submitter's context: whoever cuts the request into a
	// batch after it ended skips the row instead of scoring it for nobody.
	ctx context.Context
	x   []float64
	enq time.Time
	// done is buffered so the batch can always deliver, even when the
	// submitter abandoned the request on context expiry.
	done chan result
}

type result struct {
	probs []float64
	// version stamps the model snapshot that scored this row (0 when the
	// engine is not version-aware, e.g. test fakes).
	version uint64
	err     error
}

// versionedEngine is the optional BatchEngine extension the batcher uses
// to attribute each result to the model snapshot that produced it. The
// handle-bound serving engine implements it; the batcher reads it on the
// executing goroutine immediately after the batch runs.
type versionedEngine interface {
	ModelVersion() uint64
}

// engineVersion returns the engine's current model version, 0 for
// engines that are not version-aware.
func engineVersion(eng BatchEngine) uint64 {
	if v, ok := eng.(versionedEngine); ok {
		return v.ModelVersion()
	}
	return 0
}

// Batcher is the micro-batching scheduler. It has no goroutines of its
// own: SubmitV enqueues a vector into a bounded channel, and a submitter
// that finds an engine free takes it, cuts a batch from whatever is
// queued — its own request and any that arrived while every engine was
// busy, up to BatchSize — and runs it on its own goroutine; the others
// wait for their result. The policy is work-conserving: nobody holds a
// request back to wait for peers, so an idle batcher answers a lone
// request at engine latency with no goroutine handoff, and a batch is
// exactly what arrived while every engine was busy. A panic inside a
// batch is isolated pool-style: the batch falls back to recover-guarded
// per-row execution so one poisoned vector fails alone.
//
// Lifecycle: Close stops admission and then drains — it runs whatever is
// still queued and waits for every engine to come back, so every request
// accepted before Close observes a result (the zero-drop drain
// invariant; Stats reports the accounting).
type Batcher struct {
	cfg       BatcherConfig
	queue     chan *request
	idle      chan *engine // engines nobody is running a batch on
	mu        sync.RWMutex // makes admission atomic with respect to Close
	drain     bool
	closeOnce sync.Once
	started   atomic.Uint64 // accepted into the queue
	done      atomic.Uint64 // answered: results delivered (incl. to abandoned requests) + expired rows skipped
}

// engine is one BatchEngine with the scratch that travels with it. It is
// owned by whoever received it from Batcher.idle, until it is sent back.
type engine struct {
	eng   BatchEngine
	batch []*request
	xs    [][]float64
	dst   [][]float64
}

// NewBatcher builds the engines and returns the batcher.
func NewBatcher(cfg BatcherConfig) *Batcher {
	if cfg.NewEngine == nil {
		panic("serve: BatcherConfig.NewEngine is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	b := &Batcher{
		cfg:   cfg,
		queue: make(chan *request, cfg.QueueDepth),
		idle:  make(chan *engine, cfg.Workers),
	}
	for w := 0; w < cfg.Workers; w++ {
		b.idle <- &engine{eng: cfg.NewEngine()}
	}
	return b
}

// SubmitV enqueues x and returns its result, the version stamp of the
// model snapshot that scored it (0 when the engine is not version-aware),
// the context's error, or an admission failure. The returned probability
// vector is the caller's to keep. Replayed corpora and red-team logs keep
// the version so every verdict is attributable to the exact weights that
// produced it, even across a hot swap. Admission is fast-fail: a full
// queue returns ErrQueueFull immediately (the server turns that into
// 429), and a draining batcher returns ErrDraining (503). A context that
// ends while the request is queued, or while another submitter's batch
// carries it, ends the wait at once; a submitter that is running a batch
// itself returns when the engine does.
func (b *Batcher) SubmitV(ctx context.Context, x []float64) ([]float64, uint64, error) {
	if b.cfg.InputDim > 0 && len(x) != b.cfg.InputDim {
		return nil, 0, fmt.Errorf("%w: got %d features, want %d", ErrBadInput, len(x), b.cfg.InputDim)
	}
	req := &request{ctx: ctx, x: x, enq: time.Now(), done: make(chan result, 1)}

	// The read lock makes admission atomic with respect to Close: once
	// Close holds the write lock nothing more enters the queue, so what it
	// then drains is everything there will ever be.
	b.mu.RLock()
	if b.drain {
		b.mu.RUnlock()
		b.cfg.Metrics.reject(true)
		return nil, 0, ErrDraining
	}
	select {
	case b.queue <- req:
		b.started.Add(1)
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.cfg.Metrics.reject(false)
		return nil, 0, ErrQueueFull
	}
	if m := b.cfg.Metrics; m != nil {
		m.Requests.Add(1)
	}

	// Wait for the result and, while the request may still be queued, for
	// a free engine: whoever gets one runs the head of the queue.
	idle := b.idle
	for {
		select {
		case res := <-req.done:
			return res.probs, res.version, res.err
		case <-ctx.Done():
			// Only this waiter gives up. A request still queued is skipped
			// when a batch is cut; one already in a batch is executed and
			// delivered into the buffered channel.
			if m := b.cfg.Metrics; m != nil {
				m.Expired.Add(1)
			}
			return nil, 0, ctx.Err()
		case e := <-idle:
			emptied := b.serve(e)
			b.idle <- e
			select {
			case res := <-req.done:
				return res.probs, res.version, res.err
			default:
			}
			// This request is in a batch somebody else is running, or
			// still queued behind a full one: only then keep asking.
			if emptied {
				idle = nil
			}
		}
	}
}

// reject records an admission rejection (nil-safe).
func (m *Metrics) reject(draining bool) {
	if m == nil {
		return
	}
	if draining {
		m.RejectedDrn.Add(1)
	} else {
		m.RejectedFul.Add(1)
	}
}

// Draining reports whether Close has begun. The server's /readyz
// consults it so a batcher closed directly — not via the NotReady →
// Shutdown → Drain sequence — still flips readiness before any request
// can be refused with ErrDraining.
func (b *Batcher) Draining() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.drain
}

// Close stops admission, runs every request still queued, waits for the
// batches in flight and then returns. Safe to call more than once.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.drain = true
		b.mu.Unlock()
		// Retire the engines one by one. Each runs the queue dry before
		// the next is awaited, so whatever the waiting submitters did not
		// get to is answered here, and with the last engine in hand no
		// batch is executing.
		for w := 0; w < b.cfg.Workers; w++ {
			e := <-b.idle
			for !b.serve(e) {
			}
		}
	})
}

// BatcherStats is the drain accounting: Accepted requests entered the
// queue, Completed were answered — with a result, or with their own
// context's error when it ended before a batch took them. After
// Close these are equal — Dropped is the difference and the zero-drop
// invariant is Dropped == 0.
type BatcherStats struct {
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Dropped   uint64 `json:"dropped"`
}

// Stats returns the current accounting. Only stable after Close.
func (b *Batcher) Stats() BatcherStats {
	acc, done := b.started.Load(), b.done.Load()
	return BatcherStats{Accepted: acc, Completed: done, Dropped: acc - done}
}

// serve cuts one batch from the queue and executes it on e. It reports
// whether it saw the queue empty.
//
// The cut is the whole coalescing policy. The head of the queue always
// goes; what is behind it goes along only when no other engine is free to
// take it, and then the submitter also yields the processor once before it
// looks again. With nothing else runnable the yield returns at once; under
// load it lets every handler goroutine that is ready to submit do so first
// — a submitter that never yielded would run batches of one at exactly the
// moment batching pays. So an idle batcher runs a lone request straight
// away, two requests on two free engines run side by side, and a batch is
// what arrived while every engine was busy.
func (b *Batcher) serve(e *engine) (emptied bool) {
	e.batch = e.batch[:0]
	if emptied = b.takeQueued(e, 1); !emptied && len(b.idle) == 0 {
		if emptied = b.takeQueued(e, b.cfg.BatchSize); emptied {
			runtime.Gosched()
			emptied = b.takeQueued(e, b.cfg.BatchSize)
		}
	}
	if len(e.batch) > 0 {
		b.exec(e)
	}
	return emptied
}

// takeQueued moves requests from the queue into e.batch without blocking
// until the batch holds limit of them, and reports whether it found the
// queue empty first. A request whose context ended while it was queued is
// accounted as completed without reaching the engine: its submitter has
// returned (or is returning — Done is closed) with ctx.Err() and has
// counted the expiry, so nobody is left to read a result, and under
// overload the engine time goes to requests that can still be answered.
func (b *Batcher) takeQueued(e *engine, limit int) (emptied bool) {
	for len(e.batch) < limit {
		select {
		case req := <-b.queue:
			if req.ctx.Err() != nil {
				b.done.Add(1)
				continue
			}
			e.batch = append(e.batch, req)
		default:
			return true
		}
	}
	return false
}

// exec runs e.batch and answers every request in it. The engine's dst
// rows are reused across batches, so each result gets a private copy.
func (b *Batcher) exec(e *engine) {
	eng, batch := e.eng, e.batch
	m := b.cfg.Metrics
	start := time.Now()
	if m != nil {
		m.BatchSize.Observe(float64(len(batch)))
		for _, req := range batch {
			m.QueueWait.ObserveDuration(start.Sub(req.enq))
		}
	}
	e.xs = e.xs[:0]
	for _, req := range batch {
		e.xs = append(e.xs, req.x)
	}
	out, err := probsBatchSafe(eng, e.xs, e.dst)
	if err == nil {
		e.dst = out
		// Read the version on the executing goroutine, after the batch ran
		// and before the next bind can move the engine to a new snapshot:
		// this stamps exactly the weights that scored these rows.
		ver := engineVersion(eng)
		for i, req := range batch {
			probs := make([]float64, len(out[i]))
			copy(probs, out[i])
			req.done <- result{probs: probs, version: ver}
			b.done.Add(1)
		}
	} else {
		// The batch panicked. Re-run each row alone through the
		// recover-guarded per-row path so the poisoned row fails with
		// its own error and every healthy row still gets its verdict.
		if m != nil {
			m.Panics.Add(1)
		}
		for _, req := range batch {
			probs, rerr := eng.SafeProbs(req.x)
			if rerr == nil {
				probs = append([]float64(nil), probs...)
			}
			req.done <- result{probs: probs, version: engineVersion(eng), err: rerr}
			b.done.Add(1)
		}
	}
	if m != nil {
		m.InferLat.ObserveDuration(time.Since(start))
	}
}

// probsBatchSafe is the batch-level panic boundary, capturing faults
// with their stacks pool-style so they stay diagnosable.
func probsBatchSafe(eng BatchEngine, xs [][]float64, dst [][]float64) (out [][]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, &pool.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return eng.ProbsBatch(xs, dst), nil
}
