package serve

// The two-tier inference path: bulk traffic runs on the int8 quantized
// engine (~1.7x the float throughput on the paper CNN), and any row the
// quantized model is not confident about — top-two probability margin
// inside the configured band — is re-run on the float64 engine before
// the verdict leaves the engine. The quantized model's argmax agrees
// with the float oracle away from the borderline band (the nn property
// tests pin >=99.9% agreement at margin > 0.2), so escalation confines
// the quantization error to exactly the rows where it could matter.

// tieredEngine is a BatchEngine that serves batches on the bulk engine
// and escalates borderline rows to the precise engine. One instance per
// batcher engine — it reuses internal scratch across batches and is not
// safe for concurrent use (matching the BatchEngine contract).
type tieredEngine struct {
	bulk    BatchEngine // quantized workspace
	precise BatchEngine // float workspace
	band    float64     // escalate when top1-top2 < band
	m       *Metrics

	escX   [][]float64
	escIdx []int
	escDst [][]float64
}

func newTieredEngine(bulk, precise BatchEngine, band float64, m *Metrics) *tieredEngine {
	return &tieredEngine{bulk: bulk, precise: precise, band: band, m: m}
}

// topTwoMargin returns top1 - top2 of a probability row (0 for rows with
// fewer than two classes, forcing escalation of malformed rows).
func topTwoMargin(p []float64) float64 {
	if len(p) < 2 {
		return 0
	}
	top1, top2 := p[0], p[1]
	if top2 > top1 {
		top1, top2 = top2, top1
	}
	for _, v := range p[2:] {
		if v > top1 {
			top1, top2 = v, top1
		} else if v > top2 {
			top2 = v
		}
	}
	return top1 - top2
}

// ProbsBatch runs the whole batch on the bulk engine, then re-runs the
// borderline rows on the precise engine and overwrites their rows in
// place, so callers see one coherent result.
func (e *tieredEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	out := e.bulk.ProbsBatch(xs, dst)
	e.escX, e.escIdx = e.escX[:0], e.escIdx[:0]
	for i, p := range out {
		if topTwoMargin(p) < e.band {
			e.escIdx = append(e.escIdx, i)
			e.escX = append(e.escX, xs[i])
		}
	}
	if len(e.escIdx) > 0 {
		e.escDst = e.precise.ProbsBatch(e.escX, e.escDst)
		for j, i := range e.escIdx {
			out[i] = append(out[i][:0], e.escDst[j]...)
		}
	}
	if e.m != nil {
		e.m.TierBulk.Add(uint64(len(xs) - len(e.escIdx)))
		e.m.TierEscalated.Add(uint64(len(e.escIdx)))
	}
	return out
}

// SafeProbs is the per-row fallback: bulk first, escalating to the
// precise engine on a borderline margin or any bulk-side fault (the
// poisoned-row isolation path prefers the engine with the hardened
// reference semantics).
func (e *tieredEngine) SafeProbs(x []float64) ([]float64, error) {
	p, err := e.bulk.SafeProbs(x)
	if err == nil && topTwoMargin(p) >= e.band {
		if e.m != nil {
			e.m.TierBulk.Add(1)
		}
		return p, nil
	}
	if e.m != nil {
		e.m.TierEscalated.Add(1)
	}
	return e.precise.SafeProbs(x)
}
