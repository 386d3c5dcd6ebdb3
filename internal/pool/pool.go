// Package pool is the shared, context-aware worker-pool runtime behind
// every fan-out site in the pipeline (corpus assembly, training, generic
// attack crafting, and GEA). It replaces the hand-rolled goroutine loops
// that used to live in each package with one implementation that provides
//
//   - ordered fan-out: results are written by index, so output order is
//     deterministic regardless of scheduling;
//   - per-item fault isolation: an error or panic in one item is captured
//     as an *ItemError and never takes down the run — callers decide
//     whether to skip-and-report or fail;
//   - cooperative cancellation: workers stop picking up items as soon as
//     the context is cancelled or its deadline passes;
//   - a pluggable fault-injection hook (see pool/faultinject) that tests
//     use to deterministically inject errors, panics, and hangs.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Func is one unit of work: process item index. worker identifies the
// goroutine (0 <= worker < effective worker count) so call sites can keep
// per-worker state such as weight-sharing network clones. fn must honour
// ctx for long-running items.
type Func func(ctx context.Context, worker, index int) error

// Hook runs just before each item and may veto it by returning an error
// (recorded as that item's failure). Its intended use is deterministic
// fault injection in tests; see pool/faultinject.
type Hook func(ctx context.Context, index int) error

// Options configures one Run.
type Options struct {
	// Workers is the fan-out width; 0 means GOMAXPROCS. The effective
	// width never exceeds the item count.
	Workers int
	// Strided pins item index i to worker i % workers instead of dynamic
	// work stealing. Use it when per-worker state is stateful across
	// items (e.g. a reseeded dropout RNG) and the worker→item binding
	// must be deterministic, not just the output order.
	Strided bool
	// Hook, when non-nil, runs before every item (fault injection).
	Hook Hook
	// Name, when non-nil, labels items in error reports (sample names).
	Name func(index int) string
}

// ItemError records one failed item: its index, an optional name, and the
// underlying cause (which is a *PanicError when the item panicked).
type ItemError struct {
	Index int
	Name  string
	Err   error
}

// Error implements error.
func (e *ItemError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("item %d (%s): %v", e.Index, e.Name, e.Err)
	}
	return fmt.Sprintf("item %d: %v", e.Index, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *ItemError) Unwrap() error { return e.Err }

// PanicError is a recovered panic, preserved with its stack so a poisoned
// input cannot crash a batch job but the fault stays diagnosable.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Run fans fn over the half-open index range [0, n) across a fixed pool
// of workers and blocks until every started item finished or was skipped.
// Faults never escape: an error return or panic from fn (or the hook) is
// captured as an *ItemError and the remaining items still run.
//
// The returned error is nil when every item succeeded, and otherwise the
// errors.Join of all per-item failures in ascending index order, with the
// context's error joined first when the run was cancelled or timed out.
// Use Failures to recover the per-item breakdown.
func Run(ctx context.Context, n int, opts Options, fn Func) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if opts.Strided {
				for i := w; i < n; i += workers {
					if ctx.Err() != nil {
						return
					}
					errs[i] = runOne(ctx, opts, fn, w, i)
				}
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = runOne(ctx, opts, fn, w, i)
			}
		}(w)
	}
	wg.Wait()
	joined := make([]error, 0, 1)
	if err := ctx.Err(); err != nil {
		joined = append(joined, err)
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		ie := &ItemError{Index: i, Err: err}
		if opts.Name != nil {
			ie.Name = opts.Name(i)
		}
		joined = append(joined, ie)
	}
	return errors.Join(joined...)
}

// runOne executes the hook and fn for one item with panic capture.
func runOne(ctx context.Context, opts Options, fn Func, worker, index int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if opts.Hook != nil {
		if err := opts.Hook(ctx, index); err != nil {
			return err
		}
	}
	return fn(ctx, worker, index)
}

// Failures extracts every *ItemError from an error returned by Run,
// in ascending index order. It returns nil for a nil error.
func Failures(err error) []*ItemError {
	var out []*ItemError
	collect(err, &out)
	return out
}

func collect(err error, out *[]*ItemError) {
	if err == nil {
		return
	}
	if ie, ok := err.(*ItemError); ok {
		*out = append(*out, ie)
		return
	}
	switch v := err.(type) {
	case interface{ Unwrap() []error }:
		for _, e := range v.Unwrap() {
			collect(e, out)
		}
	case interface{ Unwrap() error }:
		collect(v.Unwrap(), out)
	}
}

// Cancelled reports whether err (from Run, or any pipeline that wraps a
// context error) is due to context cancellation or deadline expiry rather
// than item failures alone. The commands map it to exit status 130.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
