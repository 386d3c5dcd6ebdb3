package lifecycle

import (
	"context"
	"fmt"
	"time"

	"advmal/internal/core"
)

// Retrainer is one retraining cycle's wiring: draw a window from the
// stream, train a candidate, canary it against the live model, and swap
// the handle only when every gate passes. cmd/retrain drives it, one
// RunOnce per window, and publishes each winner onward (to disk or to a
// serve -admin replica). It is not safe for concurrent RunOnce calls.
type Retrainer struct {
	// Handle is the serving pointer candidates are swapped into.
	// Required.
	Handle *core.Handle
	// Stream supplies labeled windows. Required.
	Stream *Stream
	// Trainer fits candidates. Its Seed is advanced per cycle so every
	// candidate initializes differently. Zero value is usable.
	Trainer Trainer
	// Gates are the canary thresholds (zero values = defaults).
	Gates Gates
	// WarmStart, when true, initializes each candidate from the live
	// model's weights instead of fresh random init.
	WarmStart bool
}

// CycleReport is one retraining cycle's outcome.
type CycleReport struct {
	// Window is the stream window index this cycle trained on.
	Window int `json:"window"`
	// WindowSize is the usable (post-skip) sample count.
	WindowSize int `json:"window_size"`
	// Swapped reports whether the candidate reached traffic.
	Swapped bool `json:"swapped"`
	// OldVersion/NewVersion bracket the swap; equal when no swap
	// happened.
	OldVersion uint64 `json:"old_version"`
	NewVersion uint64 `json:"new_version"`
	// Canary is the full gate evaluation.
	Canary CanaryResult `json:"canary"`
	// TrainTime and CanaryTime are the cycle's cost split.
	TrainTime  time.Duration `json:"train_time"`
	CanaryTime time.Duration `json:"canary_time"`
}

// RunOnce executes one full cycle: window → candidate → canary → swap
// (gates permitting). A gated-out candidate is not an error — the report
// says Swapped=false and the caller moves on to the next window.
func (r *Retrainer) RunOnce(ctx context.Context) (*CycleReport, error) {
	if r.Handle == nil || r.Stream == nil {
		return nil, fmt.Errorf("lifecycle: retrainer needs a Handle and a Stream")
	}
	window := r.Stream.Window()
	samples, err := r.Stream.Next()
	if err != nil {
		return nil, err
	}
	live := r.Handle.Current()
	tr := r.Trainer
	tr.Seed += int64(window) * 31 // fresh init per cycle
	if tr.Extractor == nil {
		tr.Extractor = live.Extractor // keep the feature cache warm
	}
	if tr.Classes == 0 {
		// Candidates inherit the live head width, so a hot swap never
		// changes the serving class space mid-flight.
		tr.Classes = live.Net.NumClasses()
	}
	if r.WarmStart {
		tr.WarmStart = live.Net
	}
	t0 := time.Now()
	cand, err := tr.Train(ctx, samples)
	if err != nil {
		return nil, err
	}
	trainTime := time.Since(t0)

	t1 := time.Now()
	canary, err := EvaluateCanary(ctx, live, cand.Model, cand.HoldX, cand.HoldY, r.Gates)
	if err != nil {
		return nil, err
	}
	rep := &CycleReport{
		Window:     window,
		WindowSize: cand.Window,
		OldVersion: live.Version,
		NewVersion: live.Version,
		Canary:     canary,
		TrainTime:  trainTime,
		CanaryTime: time.Since(t1),
	}
	if canary.Pass {
		if _, err := r.Handle.Swap(cand.Model); err != nil {
			return nil, fmt.Errorf("lifecycle: swap: %w", err)
		}
		rep.Swapped = true
		rep.NewVersion = cand.Model.Version
	}
	return rep, nil
}
