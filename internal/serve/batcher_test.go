package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"advmal/internal/nn"
	"advmal/internal/pool"
)

// wsEngine returns a real inference engine factory over one shared net.
func wsEngine(net *nn.Network) func() BatchEngine {
	return func() BatchEngine { return net.CloneShared().WS() }
}

func randBatch(n, dim int, seed int64) [][]float64 {
	xs := make([][]float64, n)
	v := seed
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			v = v*6364136223846793005 + 1442695040888963407
			xs[i][j] = float64(v%1000) / 1000
		}
	}
	return xs
}

// TestBatcherMatchesDirect submits concurrently through the batcher and
// checks every result is bit-identical to a direct workspace call — the
// scheduler must change scheduling, never results.
func TestBatcherMatchesDirect(t *testing.T) {
	net := nn.PaperCNN(7)
	b := NewBatcher(BatcherConfig{
		Workers: 2, BatchSize: 8,
		QueueDepth: 256, NewEngine: wsEngine(net),
	})
	defer b.Close()
	ref := net.CloneShared().WS()
	xs := randBatch(48, net.InputDim(), 3)
	want := make([][]float64, len(xs))
	for i, x := range xs {
		want[i] = append([]float64(nil), ref.Probs(x)...)
	}
	var wg sync.WaitGroup
	for i, x := range xs {
		wg.Add(1)
		go func(i int, x []float64) {
			defer wg.Done()
			probs, _, err := b.SubmitV(context.Background(), x)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			for c := range probs {
				if probs[c] != want[i][c] {
					t.Errorf("row %d class %d: batcher %v direct %v", i, c, probs[c], want[i][c])
					return
				}
			}
		}(i, x)
	}
	wg.Wait()
}

// blockEngine lets a test hold batches open to fill the queue, and
// records what each batch carried. One instance may back every engine.
type blockEngine struct {
	release chan struct{} // receive = permission to finish one batch
	entered atomic.Int32  // batches currently or previously started
	classes int

	mu      sync.Mutex
	batches [][]float64 // first feature of every row, per batch, in order of entry
}

func (e *blockEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	rows := make([]float64, len(xs))
	for i, x := range xs {
		rows[i] = x[0]
	}
	e.mu.Lock()
	e.batches = append(e.batches, rows)
	e.mu.Unlock()
	e.entered.Add(1)
	<-e.release
	out := make([][]float64, len(xs))
	for i := range out {
		out[i] = make([]float64, e.classes)
		out[i][0] = 1
	}
	return out
}

// seen returns a copy of the batches recorded so far.
func (e *blockEngine) seen() [][]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]float64(nil), e.batches...)
}

func (e *blockEngine) SafeProbs(x []float64) ([]float64, error) {
	p := make([]float64, e.classes)
	p[0] = 1
	return p, nil
}

// TestBatcherQueueFull pins fast-fail admission: with the engine wedged
// and the queue at depth, SubmitV returns ErrQueueFull immediately.
func TestBatcherQueueFull(t *testing.T) {
	eng := &blockEngine{release: make(chan struct{}), classes: 2}
	m := NewMetrics()
	b := NewBatcher(BatcherConfig{
		Workers: 1, BatchSize: 1, QueueDepth: 2,
		NewEngine: func() BatchEngine { return eng }, Metrics: m,
	})
	// Wedge the engine on one in-flight request, then fill the queue.
	results := make(chan error, 8)
	submit := func() {
		_, _, err := b.SubmitV(context.Background(), []float64{1})
		results <- err
	}
	go submit()
	// Wait until the first submitter is wedged inside its batch (the
	// request is out of the queue) before filling the queue itself.
	waitFor(t, func() bool { return eng.entered.Load() == 1 })
	go submit()
	go submit()
	waitFor(t, func() bool { return m.Requests.Load() == 3 })
	if _, _, err := b.SubmitV(context.Background(), []float64{1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if m.RejectedFul.Load() != 1 {
		t.Fatalf("queue-full rejections = %d, want 1", m.RejectedFul.Load())
	}
	// Release everything and verify the wedged requests complete.
	go func() {
		for i := 0; i < 3; i++ {
			eng.release <- struct{}{}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("wedged request %d failed: %v", i, err)
		}
	}
	b.Close()
}

// TestBatcherDrainZeroDrops is the graceful-shutdown invariant: every
// request accepted before Close gets a result, and the accounting shows
// zero drops.
func TestBatcherDrainZeroDrops(t *testing.T) {
	net := nn.PaperCNN(11)
	b := NewBatcher(BatcherConfig{
		Workers: 2, BatchSize: 4,
		QueueDepth: 256, NewEngine: wsEngine(net),
	})
	xs := randBatch(64, net.InputDim(), 5)
	var wg sync.WaitGroup
	var completed, rejected int64
	var mu sync.Mutex
	for _, x := range xs {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			probs, _, err := b.SubmitV(context.Background(), x)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && len(probs) == 2:
				completed++
			case errors.Is(err, ErrDraining):
				rejected++
			default:
				t.Errorf("unexpected result: probs=%v err=%v", probs, err)
			}
		}(x)
	}
	// Close while submissions are racing in: accepted ones must still
	// complete, late ones must see ErrDraining.
	b.Close()
	wg.Wait()
	st := b.Stats()
	if st.Dropped != 0 {
		t.Fatalf("drain dropped %d of %d accepted requests", st.Dropped, st.Accepted)
	}
	if completed != int64(st.Completed) {
		t.Fatalf("callers saw %d completions, batcher accounted %d", completed, st.Completed)
	}
	if completed+rejected != int64(len(xs)) {
		t.Fatalf("accounting leak: %d completed + %d rejected != %d submitted",
			completed, rejected, len(xs))
	}
	// Post-drain submissions are turned away, not deadlocked.
	if _, _, err := b.SubmitV(context.Background(), xs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close submit: err = %v, want ErrDraining", err)
	}
}

// poisonEngine panics batch-wide when any row carries the poison marker,
// and fails only the poisoned row in per-row fallback mode — the fake
// models a data-dependent kernel fault.
type poisonEngine struct{ classes int }

func (e *poisonEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		if math.IsNaN(x[0]) {
			panic(fmt.Sprintf("poisoned row %d", i))
		}
		out[i] = make([]float64, e.classes)
		out[i][1] = x[0]
	}
	return out
}

func (e *poisonEngine) SafeProbs(x []float64) ([]float64, error) {
	if math.IsNaN(x[0]) {
		return nil, errors.New("poisoned input")
	}
	p := make([]float64, e.classes)
	p[1] = x[0]
	return p, nil
}

// TestBatcherPanicIsolation pins per-batch fault isolation: a row that
// panics the batched kernel fails alone via the per-row fallback, while
// every cohabitant of its batch still gets a correct verdict and the
// panic is counted.
func TestBatcherPanicIsolation(t *testing.T) {
	m := NewMetrics()
	b := NewBatcher(BatcherConfig{
		Workers: 1, BatchSize: 8, QueueDepth: 64,
		NewEngine: func() BatchEngine { return &poisonEngine{classes: 2} },
		Metrics:   m,
	})
	defer b.Close()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	probs := make([][]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := []float64{float64(i + 1)}
			if i == 3 {
				x[0] = math.NaN()
			}
			probs[i], _, errs[i] = b.SubmitV(context.Background(), x)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if i == 3 {
			if errs[i] == nil {
				t.Fatalf("poisoned row classified successfully: %v", probs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy row %d failed: %v", i, errs[i])
		}
		if probs[i][1] != float64(i+1) {
			t.Fatalf("healthy row %d: wrong result %v", i, probs[i])
		}
	}
	if m.Panics.Load() == 0 {
		t.Fatal("batch panic not counted")
	}
}

// TestBatcherPanicError checks the captured panic carries its stack
// pool-style when even the per-row fallback panics.
func TestBatcherPanicError(t *testing.T) {
	var pe *pool.PanicError
	_, err := probsBatchSafe(panicEngine{}, [][]float64{{1}}, nil)
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *pool.PanicError", err)
	}
	if pe.Value != "kernel fault" || len(pe.Stack) == 0 {
		t.Fatalf("panic not preserved: %+v", pe)
	}
}

type panicEngine struct{}

func (panicEngine) ProbsBatch([][]float64, [][]float64) [][]float64 { panic("kernel fault") }
func (panicEngine) SafeProbs([]float64) ([]float64, error)          { panic("kernel fault") }

// TestBatcherContextExpiry: a request whose context dies while somebody
// else's batch is executing it gets its context error immediately; the
// batch still finishes and accounts it. The test plays that somebody: it
// holds the only engine, so the submitter can only queue and wait.
func TestBatcherContextExpiry(t *testing.T) {
	eng := &blockEngine{release: make(chan struct{}), classes: 2}
	m := NewMetrics()
	b := NewBatcher(BatcherConfig{
		Workers: 1, BatchSize: 1, QueueDepth: 8,
		NewEngine: func() BatchEngine { return eng }, Metrics: m,
	})
	e := <-b.idle
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.SubmitV(ctx, []float64{1})
		errc <- err
	}()
	waitFor(t, func() bool { return m.Requests.Load() == 1 })
	go func() {
		b.serve(e)
		b.idle <- e
	}()
	waitFor(t, func() bool { return eng.entered.Load() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Expired.Load() != 1 {
		t.Fatalf("expired = %d, want 1", m.Expired.Load())
	}
	// The batch must still be able to finish the abandoned request
	// (buffered done channel) and then drain cleanly.
	eng.release <- struct{}{}
	b.Close()
	if st := b.Stats(); st.Dropped != 0 {
		t.Fatalf("abandoned request dropped: %+v", st)
	}
}

// TestBatcherSkipsExpiredQueued pins the deadline contract: a request
// whose context ended while it was still queued is answered with that
// context's error, counted expired once and accounted as completed — and
// its row never reaches the engine, so an overloaded server spends no
// inference on answers nobody is waiting for.
func TestBatcherSkipsExpiredQueued(t *testing.T) {
	eng := &blockEngine{release: make(chan struct{}), classes: 2}
	m := NewMetrics()
	b := NewBatcher(BatcherConfig{
		Workers: 1, BatchSize: 8, QueueDepth: 8,
		NewEngine: func() BatchEngine { return eng }, Metrics: m,
	})
	live := make(chan error, 2)
	submit := func(ctx context.Context, v float64, out chan<- error) {
		_, _, err := b.SubmitV(ctx, []float64{v})
		out <- err
	}
	go submit(context.Background(), 1, live)
	waitFor(t, func() bool { return eng.entered.Load() == 1 })

	// Behind the wedged engine: the doomed row, then a healthy peer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doomed := make(chan error, 1)
	go submit(ctx, 666, doomed)
	waitFor(t, func() bool { return m.Requests.Load() == 2 })
	go submit(context.Background(), 2, live)
	waitFor(t, func() bool { return m.Requests.Load() == 3 })

	cancel()
	if err := <-doomed; !errors.Is(err, context.Canceled) {
		t.Fatalf("expired request: err = %v, want context.Canceled", err)
	}
	eng.release <- struct{}{} // the wedged batch
	eng.release <- struct{}{} // the batch that formed behind it
	for i := 0; i < 2; i++ {
		if err := <-live; err != nil {
			t.Fatalf("live request failed: %v", err)
		}
	}
	b.Close()

	if got, want := eng.seen(), [][]float64{{1}, {2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("engine saw batches %v, want %v: the expired row must not be scored", got, want)
	}
	if n := m.Expired.Load(); n != 1 {
		t.Fatalf("expired = %d, want 1", n)
	}
	if st := b.Stats(); st.Accepted != 3 || st.Completed != 3 || st.Dropped != 0 {
		t.Fatalf("accounting after a skipped row: %+v, want 3 accepted, 3 completed, 0 dropped", st)
	}
}

// TestBatcherCoalescesQueued pins that batches are load-driven: with
// every engine held inside a batch, later submits can only queue, and
// the next engine to come free takes min(queued, BatchSize) of them in
// one batch — nothing waits, and nothing larger than the cap forms.
func TestBatcherCoalescesQueued(t *testing.T) {
	const workers, batchSize, n = 2, 8, 11
	eng := &blockEngine{release: make(chan struct{}), classes: 2}
	m := NewMetrics()
	b := NewBatcher(BatcherConfig{
		Workers: workers, BatchSize: batchSize, QueueDepth: 64,
		NewEngine: func() BatchEngine { return eng }, Metrics: m,
	})
	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, _, err := b.SubmitV(context.Background(), []float64{1}); err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	// Wedge the engines one at a time, so each holds a batch of one.
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go submit()
		waitFor(t, func() bool { return eng.entered.Load() == int32(w) })
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go submit()
	}
	waitFor(t, func() bool { return m.Requests.Load() == workers+n })

	// Whichever engine each release frees, the next batch is cut from
	// the queue alone: first the cap, then the remainder.
	for i, want := range []int{batchSize, n - batchSize} {
		eng.release <- struct{}{}
		waitFor(t, func() bool { return eng.entered.Load() == int32(workers+i+1) })
		if got := len(eng.seen()[workers+i]); got != want {
			t.Fatalf("batch %d after release carried %d rows, want %d", i+1, got, want)
		}
	}
	for i := 0; i < workers; i++ {
		eng.release <- struct{}{}
	}
	wg.Wait()
	b.Close()
	if got := m.BatchSize.Count(); got != workers+2 {
		t.Fatalf("executed %d batches, want %d", got, workers+2)
	}
}

// TestBatcherYieldsToSubmitters pins the other half of the policy: with
// no other engine free, the submitter that cuts a batch yields once
// before it runs it, so submitters that are runnable but have not reached
// the queue yet ride in the same batch. On one processor, with a crowd of
// submitters started together, one that ran the moment the queue looked
// empty would make every batch a single row — which is how a batcher that
// never yields loses under overload.
func TestBatcherYieldsToSubmitters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 32
	m := NewMetrics()
	b := NewBatcher(BatcherConfig{
		Workers: 1, BatchSize: 64, QueueDepth: 64,
		NewEngine: func() BatchEngine { return &poisonEngine{classes: 2} },
		Metrics:   m,
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := b.SubmitV(context.Background(), []float64{1}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	b.Close()
	if batches := m.BatchSize.Count(); batches > n/2 {
		t.Fatalf("%d rows ran in %d batches: the batcher is not letting runnable submitters in", n, batches)
	}
}

// TestBatcherSpreadsOverFreeEngines pins when not to coalesce: while
// another engine is free the cut takes only the head of the queue, so two
// requests on two free engines run side by side instead of back to back in
// one batch; with no engine free it takes everything queued.
func TestBatcherSpreadsOverFreeEngines(t *testing.T) {
	eng := &blockEngine{release: make(chan struct{}, 2), classes: 2}
	eng.release <- struct{}{}
	eng.release <- struct{}{}
	b := NewBatcher(BatcherConfig{
		Workers: 2, BatchSize: 8, QueueDepth: 8,
		NewEngine: func() BatchEngine { return eng },
	})
	for v := 1; v <= 3; v++ {
		b.queue <- &request{ctx: context.Background(), x: []float64{float64(v)}, done: make(chan result, 1)}
	}
	first := <-b.idle // its peer stays free
	if emptied := b.serve(first); emptied {
		t.Fatal("cut with a free peer reported the queue empty")
	}
	second := <-b.idle // now none is
	if emptied := b.serve(second); !emptied {
		t.Fatal("cut with no free peer left requests queued")
	}
	if got, want := eng.seen(), [][]float64{{1}, {2, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("engine saw batches %v, want %v", got, want)
	}
	b.idle <- first
	b.idle <- second
	b.Close()
}

// TestBatcherBadInput pins SubmitV-time dimension validation.
func TestBatcherBadInput(t *testing.T) {
	b := NewBatcher(BatcherConfig{
		Workers: 1, InputDim: 23,
		NewEngine: func() BatchEngine { return &blockEngine{release: make(chan struct{}), classes: 2} },
	})
	defer b.Close()
	if _, _, err := b.SubmitV(context.Background(), make([]float64, 7)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

// waitFor polls cond with a deadline; the queue tests use it to reach a
// known scheduler state without sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkBatcherSaturation is the row a two-client box cannot show
// over HTTP: the batcher in process, real workspace engines, closed-loop
// submitters from one (idle: a lone request must cost one forward pass)
// to 64 (saturated: batches must form by themselves and rows/s must
// approach the batched-kernel ceiling).
func BenchmarkBatcherSaturation(b *testing.B) {
	net := nn.PaperCNN(7)
	xs := randBatch(256, net.InputDim(), 3)
	for _, submitters := range []int{1, 2, 16, 64} {
		b.Run(fmt.Sprintf("submitters=%d", submitters), func(b *testing.B) {
			m := NewMetrics()
			bt := NewBatcher(BatcherConfig{NewEngine: wsEngine(net), Metrics: m})
			defer bt.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if _, _, err := bt.SubmitV(context.Background(), xs[i%int64(len(xs))]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(m.BatchSize.Sum()/float64(m.BatchSize.Count()), "rows/batch")
		})
	}
}
