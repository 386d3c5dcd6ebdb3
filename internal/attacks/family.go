package attacks

import (
	"context"
	"fmt"
	"runtime"

	"advmal/internal/nn"
	"advmal/internal/pool"
)

// FamilySourceRow is the untargeted family-attack outcome for one source
// class: how often crafting pushed its samples out of the class at all
// (MR, the K-way misclassification rate) and how often it achieved full
// detection evasion (predicted benign — meaningful for malicious
// sources only).
type FamilySourceRow struct {
	Source        int     `json:"source"`
	Total         int     `json:"total"`
	Misclassified int     `json:"misclassified"`
	Evaded        int     `json:"evaded"`
	MR            float64 `json:"mr"`
	EvasionRate   float64 `json:"evasion_rate"`
}

// FamilyCell is one targeted source→target cell: among Total samples of
// the source class crafted toward the target class, Hits landed exactly
// on the target.
type FamilyCell struct {
	Total int     `json:"total"`
	Hits  int     `json:"hits"`
	Rate  float64 `json:"rate"`
}

// FamilyResult aggregates one attack's family-level evaluation: the
// untargeted per-source rows plus the full source→target success matrix
// for attacks that support explicit targets. Targeted is nil for VAM
// (no target class in its objective); diagonal cells are zero-valued.
type FamilyResult struct {
	Attack     string            `json:"attack"`
	Classes    int               `json:"classes"`
	Untargeted []FamilySourceRow `json:"untargeted"`
	Targeted   [][]FamilyCell    `json:"targeted,omitempty"`
}

// EvaluateFamiliesCtx re-runs the attack evaluation against a K-way
// family head as source→target misclassification. For every attack it
// crafts each eligible (correctly classified) sample twice over: once
// untargeted — does the sample leave its true class, and does a
// malicious sample reach benign — and once per foreign target class
// with the attack's explicit target forced, scoring exact target hits.
// Labels must be family class indices (0 = benign) matching the
// network's head width. Crafting fans out over the shared worker pool;
// target state is set between fan-outs, never during one, so the
// stateful Targeted attacks stay race-free.
func EvaluateFamiliesCtx(ctx context.Context, net *nn.Network, atks []Attack, x [][]float64, y []int, opts Options) ([]FamilyResult, error) {
	classes := net.NumClasses()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := Eligible(net.WS(), x, y, opts.MaxSamples)

	results := make([]FamilyResult, 0, len(atks))
	for _, atk := range atks {
		res := FamilyResult{Attack: atk.Name(), Classes: classes}
		res.Untargeted = make([]FamilySourceRow, classes)
		for s := range res.Untargeted {
			res.Untargeted[s].Source = s
		}

		// Untargeted pass.
		SetTarget(atk, -1)
		preds, err := craftPredictions(ctx, net, atk, x, y, idx, workers)
		if err != nil {
			return results, err
		}
		for k, i := range idx {
			pred := preds[k]
			if pred < 0 {
				continue // crafting fault: isolated, excluded
			}
			row := &res.Untargeted[y[i]]
			row.Total++
			if pred != y[i] {
				row.Misclassified++
			}
			if y[i] != nn.ClassBenign && pred == nn.ClassBenign {
				row.Evaded++
			}
		}
		for s := range res.Untargeted {
			if t := res.Untargeted[s].Total; t > 0 {
				res.Untargeted[s].MR = float64(res.Untargeted[s].Misclassified) / float64(t)
				res.Untargeted[s].EvasionRate = float64(res.Untargeted[s].Evaded) / float64(t)
			}
		}

		// Targeted pass, one fan-out per target class.
		if _, ok := atk.(Targeted); ok {
			res.Targeted = make([][]FamilyCell, classes)
			for s := range res.Targeted {
				res.Targeted[s] = make([]FamilyCell, classes)
			}
			for target := 0; target < classes; target++ {
				SetTarget(atk, target)
				preds, err := craftPredictions(ctx, net, atk, x, y, idx, workers)
				if err != nil {
					SetTarget(atk, -1)
					return results, err
				}
				for k, i := range idx {
					if y[i] == target || preds[k] < 0 {
						continue
					}
					cell := &res.Targeted[y[i]][target]
					cell.Total++
					if preds[k] == target {
						cell.Hits++
					}
				}
			}
			SetTarget(atk, -1)
			for s := range res.Targeted {
				for t := range res.Targeted[s] {
					if cell := &res.Targeted[s][t]; cell.Total > 0 {
						cell.Rate = float64(cell.Hits) / float64(cell.Total)
					}
				}
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// craftPredictions crafts every idx sample with atk under its current
// target state and returns the post-attack predictions, -1 where
// crafting faulted.
func craftPredictions(ctx context.Context, net *nn.Network, atk Attack, x [][]float64, y []int, idx []int, workers int) ([]int, error) {
	preds := make([]int, len(idx))
	for k := range preds {
		preds[k] = -1
	}
	wss := make([]*nn.Workspace, min(workers, max(len(idx), 1)))
	for w := range wss {
		wss[w] = net.CloneShared().WS()
	}
	err := pool.Run(ctx, len(idx), pool.Options{
		Workers: workers,
		Name:    func(k int) string { return fmt.Sprintf("%s/family-%d", atk.Name(), idx[k]) },
	}, func(_ context.Context, w, k int) error {
		ws := wss[w]
		i := idx[k]
		adv := atk.Craft(ws, x[i], y[i])
		preds[k] = ws.Predict(adv)
		return nil
	})
	if ctx.Err() != nil {
		return preds, fmt.Errorf("attacks: %s: %w", atk.Name(), err)
	}
	return preds, nil
}
