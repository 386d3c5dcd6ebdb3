package attacks

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"advmal/internal/features"
	"advmal/internal/nn"
	"advmal/internal/pool"
)

// Options configures the Table III evaluation harness.
type Options struct {
	// MaxSamples caps how many correctly classified test samples are
	// attacked (evenly spaced subsample, deterministic); 0 means all.
	MaxSamples int
	// Tol is the per-feature change threshold for the Avg.FG column;
	// 0 means 1e-3 of the scaled range.
	Tol float64
	// Workers is the crafting parallelism; 0 means GOMAXPROCS.
	Workers int
	// Hook is the pool fault-injection hook, for tests.
	Hook pool.Hook
}

// Result aggregates one attack's row of Table III.
type Result struct {
	Attack        string        `json:"attack"`
	Total         int           `json:"total"`
	Misclassified int           `json:"misclassified"`
	MR            float64       `json:"mr"`     // misclassification rate
	AvgFG         float64       `json:"avg_fg"` // avg features changed
	AvgCT         time.Duration `json:"avg_ct"` // crafting time per sample
	ValidRate     float64       `json:"valid"`  // fraction inside the box
	MalToBen      int           `json:"mal_to_ben"`
	BenToMal      int           `json:"ben_to_mal"`
	// Skipped counts samples whose crafting failed (an error or panic in
	// the attack); they are isolated and excluded from every aggregate.
	Skipped int `json:"skipped,omitempty"`
}

// String renders the result like a Table III row.
func (r Result) String() string {
	s := fmt.Sprintf("%-11s MR=%6.2f%% Avg.FG=%5.2f CT=%8.3fms (n=%d, valid=%.0f%%)",
		r.Attack, r.MR*100, r.AvgFG, float64(r.AvgCT.Microseconds())/1000, r.Total, r.ValidRate*100)
	if r.Skipped > 0 {
		s += fmt.Sprintf(" [skipped=%d]", r.Skipped)
	}
	return s
}

// Eligible returns the indices of samples the harness attacks: those the
// detector classifies correctly, optionally capped to an evenly spaced
// subset of size maxSamples.
func Eligible(eng nn.Engine, x [][]float64, y []int, maxSamples int) []int {
	var idx []int
	for i := range x {
		if eng.Predict(x[i]) == y[i] {
			idx = append(idx, i)
		}
	}
	if maxSamples > 0 && maxSamples < len(idx) {
		out := make([]int, maxSamples)
		for k := 0; k < maxSamples; k++ {
			out[k] = idx[k*len(idx)/maxSamples]
		}
		idx = out
	}
	return idx
}

// EvaluateCtx crafts adversarial examples with every attack against every
// eligible sample on the shared worker pool and aggregates the paper's
// Table III columns. Aggregation order is deterministic. A sample whose
// crafting fails (error or panic) is isolated, counted in the row's
// Skipped column, and excluded from the aggregates; the run completes on
// the survivors. The returned error is non-nil only when ctx is cancelled,
// in which case the rows completed so far are returned with it.
func EvaluateCtx(ctx context.Context, net *nn.Network, atks []Attack, x [][]float64, y []int, opts Options) ([]Result, error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := Eligible(net.WS(), x, y, opts.MaxSamples)
	validator := &features.Validator{Lo: BoxLo, Hi: BoxHi, Eps: 1e-9}

	results := make([]Result, 0, len(atks))
	for _, atk := range atks {
		type perSample struct {
			ok    bool
			mis   bool
			fg    int
			ct    time.Duration
			valid bool
			label int
			pred  int
		}
		rows := make([]perSample, len(idx))
		// One shared-weight view plus its workspace per worker: crafting
		// runs on the zero-allocation engine, fully in parallel.
		wss := make([]*nn.Workspace, min(workers, max(len(idx), 1)))
		for w := range wss {
			wss[w] = net.CloneShared().WS()
		}
		err := pool.Run(ctx, len(idx), pool.Options{
			Workers: workers,
			Hook:    opts.Hook,
			Name:    func(k int) string { return fmt.Sprintf("%s/sample-%d", atk.Name(), idx[k]) },
		}, func(_ context.Context, w, k int) error {
			ws := wss[w]
			i := idx[k]
			t0 := time.Now()
			adv := atk.Craft(ws, x[i], y[i])
			ct := time.Since(t0)
			pred := ws.Predict(adv)
			rows[k] = perSample{
				ok:    true,
				mis:   pred != y[i],
				fg:    features.Diff(features.Vector(x[i]), features.Vector(adv), tol),
				ct:    ct,
				valid: validator.Valid(features.Vector(adv)),
				label: y[i],
				pred:  pred,
			}
			return nil
		})
		if ctx.Err() != nil {
			return results, fmt.Errorf("attacks: %s: %w", atk.Name(), err)
		}
		var res Result
		res.Attack = atk.Name()
		var fgSum, ctSum, validCnt int64
		for _, row := range rows {
			if !row.ok {
				res.Skipped++
				continue
			}
			res.Total++
			if row.mis {
				res.Misclassified++
				// Class 0 is benign in both the binary and the family class
				// space. MalToBen counts full detection evasion — a
				// malicious sample predicted benign — so a family head's
				// family-to-family confusion inflates neither column; on the
				// binary head any misclassification flips the axis, exactly
				// the legacy accounting.
				switch {
				case row.label != nn.ClassBenign && row.pred == nn.ClassBenign:
					res.MalToBen++
				case row.label == nn.ClassBenign && row.pred != nn.ClassBenign:
					res.BenToMal++
				}
			}
			fgSum += int64(row.fg)
			ctSum += int64(row.ct)
			if row.valid {
				validCnt++
			}
		}
		if res.Total > 0 {
			res.MR = float64(res.Misclassified) / float64(res.Total)
			res.AvgFG = float64(fgSum) / float64(res.Total)
			res.AvgCT = time.Duration(ctSum / int64(res.Total))
			res.ValidRate = float64(validCnt) / float64(res.Total)
		}
		results = append(results, res)
	}
	return results, nil
}
