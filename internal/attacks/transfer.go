package attacks

import (
	"context"
	"errors"
	"fmt"

	"advmal/internal/nn"
	"advmal/internal/pool"
)

// Transfer errors.
var (
	// ErrNoQueries indicates an empty query set for substitute training.
	ErrNoQueries = errors.New("attacks: no queries for substitute training")
)

// TransferConfig controls the black-box transfer evaluation. The paper's
// threat model (§II-C) distinguishes white-box attacks (used in Table
// III) from black-box ones; transfer is the standard black-box technique:
// train a substitute on the victim's input/output behaviour, craft
// white-box adversarial examples on the substitute, and replay them
// against the victim.
type TransferConfig struct {
	// Hidden is the substitute MLP's hidden width; 0 means 64.
	Hidden int
	// Epochs trains the substitute; 0 means 60.
	Epochs int
	// Seed drives substitute init and training.
	Seed int64
	// MaxSamples caps attacked victim samples; 0 means all eligible.
	MaxSamples int
	// Workers is the crafting parallelism.
	Workers int
}

// TransferResult pairs the substitute's own (white-box) misclassification
// rate with the rate that transfers to the black-box victim.
type TransferResult struct {
	Attack        string  `json:"attack"`
	SubstituteMR  float64 `json:"substitute_mr"`
	VictimMR      float64 `json:"victim_mr"`
	Total         int     `json:"total"`
	SubstituteAcc float64 `json:"substitute_acc"` // agreement with victim labels
}

// String renders the transfer result.
func (r TransferResult) String() string {
	return fmt.Sprintf("%-11s substitute MR=%6.2f%% -> victim MR=%6.2f%% (n=%d, agreement=%.1f%%)",
		r.Attack, r.SubstituteMR*100, r.VictimMR*100, r.Total, r.SubstituteAcc*100)
}

// TrainSubstituteCtx fits a small MLP to imitate the victim: the queries
// are labelled by the victim's own predictions (model stealing), so the
// adversary needs no ground truth. Training checks ctx between batches.
func TrainSubstituteCtx(ctx context.Context, victim *nn.Network, queries [][]float64, cfg TransferConfig) (*nn.Network, error) {
	if len(queries) == 0 {
		return nil, ErrNoQueries
	}
	hidden := cfg.Hidden
	if hidden <= 0 {
		hidden = 64
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 60
	}
	labels := make([]int, len(queries))
	vws := victim.WS()
	for i, q := range queries {
		labels[i] = vws.Predict(q)
	}
	sub := nn.SmallMLP(cfg.Seed+1, len(queries[0]), hidden, victim.NumClasses())
	tr := &nn.Trainer{
		Epochs:    epochs,
		BatchSize: 32,
		Seed:      cfg.Seed + 2,
		Workers:   cfg.Workers,
	}
	if _, err := tr.FitCtx(ctx, sub, queries, labels); err != nil {
		return nil, fmt.Errorf("attacks: substitute training: %w", err)
	}
	return sub, nil
}

// TransferEvaluateCtx trains a substitute on queries, crafts adversarial
// examples against the substitute with every attack on the shared worker
// pool, and measures how often they also fool the black-box victim.
// Crafting failures are isolated per sample and excluded from the rates.
func TransferEvaluateCtx(ctx context.Context, victim *nn.Network, atks []Attack, queries, testX [][]float64, testY []int, cfg TransferConfig) ([]TransferResult, error) {
	sub, err := TrainSubstituteCtx(ctx, victim, queries, cfg)
	if err != nil {
		return nil, err
	}
	// Substitute/victim agreement on the test set.
	agree := 0
	sws, vws := sub.WS(), victim.WS()
	for _, x := range testX {
		if sws.Predict(x) == vws.Predict(x) {
			agree++
		}
	}
	agreement := 0.0
	if len(testX) > 0 {
		agreement = float64(agree) / float64(len(testX))
	}
	idx := Eligible(vws, testX, testY, cfg.MaxSamples)
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	results := make([]TransferResult, 0, len(atks))
	for _, atk := range atks {
		var res TransferResult
		res.Attack = atk.Name()
		res.SubstituteAcc = agreement
		type outcome struct {
			ok      bool
			subMiss bool
			vicMiss bool
		}
		outs := make([]outcome, len(idx))
		subWS := make([]*nn.Workspace, workers)
		vicWS := make([]*nn.Workspace, workers)
		for w := range subWS {
			subWS[w] = sub.CloneShared().WS()
			vicWS[w] = victim.CloneShared().WS()
		}
		err := pool.Run(ctx, len(idx), pool.Options{Workers: workers},
			func(_ context.Context, w, k int) error {
				i := idx[k]
				adv := atk.Craft(subWS[w], testX[i], testY[i])
				outs[k] = outcome{
					ok:      true,
					subMiss: subWS[w].Predict(adv) != testY[i],
					vicMiss: vicWS[w].Predict(adv) != testY[i],
				}
				return nil
			})
		if ctx.Err() != nil {
			return results, fmt.Errorf("attacks: transfer %s: %w", atk.Name(), err)
		}
		subFooled, victimFooled := 0, 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			res.Total++
			if o.subMiss {
				subFooled++
			}
			if o.vicMiss {
				victimFooled++
			}
		}
		if res.Total > 0 {
			res.SubstituteMR = float64(subFooled) / float64(res.Total)
			res.VictimMR = float64(victimFooled) / float64(res.Total)
		}
		results = append(results, res)
	}
	return results, nil
}
