package nn

import (
	"context"
	"errors"
	"testing"
	"time"

	"advmal/internal/pool"
)

// TestFitCtxCancelled checks training honours cancellation: a cancelled
// context stops the epoch loop with context.Canceled and the partial
// history survives.
func TestFitCtxCancelled(t *testing.T) {
	x, y := blobs(1, 120, 4)
	net := SmallMLP(2, 4, 16, 2)
	tr := &Trainer{Epochs: 50, BatchSize: 20, Seed: 3, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hist, err := tr.FitCtx(ctx, net, x, y)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if hist == nil {
		t.Fatal("partial history lost on cancellation")
	}
}

// TestFitCtxDeadline checks a deadline bounds a long run promptly
// instead of training all epochs.
func TestFitCtxDeadline(t *testing.T) {
	x, y := blobs(2, 400, 4)
	net := SmallMLP(3, 4, 64, 2)
	tr := &Trainer{Epochs: 100000, BatchSize: 8, Seed: 3, Workers: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.FitCtx(ctx, net, x, y)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline honoured only after %v", d)
	}
}

// TestFitCapturesLayerPanic poisons one training vector with the wrong
// dimensionality: the panic inside the layer stack must surface as an
// error identifying the batch, not crash the process.
func TestFitCapturesLayerPanic(t *testing.T) {
	x, y := blobs(1, 60, 4)
	x[17] = []float64{1} // wrong input dim → layer panic
	net := SmallMLP(2, 4, 16, 2)
	tr := &Trainer{Epochs: 3, BatchSize: 20, Seed: 3, Workers: 2}
	_, err := tr.FitCtx(context.Background(), net, x, y)
	if err == nil {
		t.Fatal("Fit succeeded on a poisoned vector")
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("layer panic not captured as PanicError: %v", err)
	}
}

// TestSafeForwardRejectsBadInput checks the recover boundary on the
// inference path: wrong-dimension inputs are errors, never panics.
func TestSafeForwardRejectsBadInput(t *testing.T) {
	ws := SmallMLP(1, 4, 8, 2).WS()
	if _, err := ws.SafeProbs([]float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
	if _, err := ws.SafeProbs(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("SafeProbs(nil): want ErrBadInput, got %v", err)
	}
	out, err := ws.SafeProbs([]float64{1, 2, 3, 4})
	if err != nil || len(out) != 2 {
		t.Fatalf("valid input rejected: out=%v err=%v", out, err)
	}
}
