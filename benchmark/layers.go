package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/graph"
	"advmal/internal/index"
	"advmal/internal/ir"
	"advmal/internal/serve"
)

// Server defaults the in-process batcher probe repeats: cmd/serve's
// -batch and -window. serve.BatcherConfig treats a zero window as
// "flush greedily", so the probe has to spell the default out.
const (
	serveBatchSize = 64
	serveWindow    = 2 * time.Millisecond
)

// acc accumulates the durations of one kind of call.
type acc struct{ us []float64 }

func (a *acc) add(d time.Duration) { a.us = append(a.us, float64(d)/1e3) }
func (a *acc) mean() float64       { return mean(a.us) }
func (a *acc) p95() float64        { v, _ := percentile(sortedCopy(a.us), 0.95); return v }

// pathReplay is the result of walking bodies through the verdict path in
// process: the probabilities per body (the trace's own check against the
// oracle) and the stage timings.
type pathReplay struct {
	probs  map[int][]float64
	scaled [][]float64 // network-ready vectors, for the forward probes
	raw    [][]float64 // unscaled vectors, for the batcher probe

	parse, disassemble, extract, scale, forward, search, encode acc
}

// setMetrics fills the stage means every replay has.
func (rp *pathReplay) setMetrics(m *metricSet) {
	m.set("ir.parse_us_mean", rp.parse.mean())
	m.set("ir.disassemble_us_mean", rp.disassemble.mean())
	m.set("features.scale_us_mean", rp.scale.mean())
	m.set("nn.forward_us_mean", rp.forward.mean())
	m.set("index.search_us_mean", rp.search.mean())
	m.set("serve.encode_us_mean", rp.encode.mean())
}

// replayPath walks the picked bodies, single goroutine, through the
// public functions cmd/serve's classify handler calls, one span per
// call. ext is the extractor the workload's server would have: fresh for
// cold bodies (every call misses), warmed for the repeated working set
// (every call hits). withIndex adds the triage step of a server started
// with -index; the offline workload has none.
func replayPath(tr *tracer, fx *fixture, bodies []body, picks []int, ext *features.Extractor, withIndex bool) (*pathReplay, error) {
	rp := &pathReplay{probs: make(map[int][]float64, len(picks))}
	model := fx.model
	ws := model.AcquireWS()
	defer model.ReleaseWS(ws)
	for _, i := range picks {
		root := tr.begin(i, "replay", "request")

		id := tr.begin(i, "ir", "Parse")
		prog, err := ir.Parse(bodies[i].text)
		rp.parse.add(tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}

		id = tr.begin(i, "ir", "Disassemble")
		cfg, err := ir.Disassemble(prog)
		var g *graph.Graph
		if err == nil {
			g = cfg.G()
		}
		rp.disassemble.add(tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}

		id = tr.begin(i, "features", "Extractor.Extract")
		raw := ext.Extract(g)
		rp.extract.add(tr.end(id))

		id = tr.begin(i, "features", "Scaler.Transform")
		scaled, err := model.Scaler.Transform(raw)
		rp.scale.add(tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}

		id = tr.begin(i, "nn", "Workspace.SafeProbs")
		probs, err := ws.SafeProbs(scaled)
		rp.forward.add(tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}
		probs = append([]float64(nil), probs...)

		var triage *index.TriageInfo
		if withIndex {
			id = tr.begin(i, "index", "HNSW.Search+Triage.Score")
			hits, err := fx.corpus.HNSW.Search(scaled, 1)
			if err == nil && len(hits) > 0 {
				ti := fx.corpus.Triage.Score(hits)
				triage = &ti
			}
			rp.search.add(tr.end(id))
			if err != nil {
				return nil, fmt.Errorf("replay body %d: %w", i, err)
			}
		}

		id = tr.begin(i, "serve", "MakeVerdict+json.Marshal")
		verdict, err := serve.MakeVerdict("", probs, g.N(), g.M(), true, model.Version)
		if err == nil {
			verdict.Triage = triage
			_, err = json.Marshal(verdict)
		}
		rp.encode.add(tr.end(id))
		if err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}

		tr.end(root)
		rp.probs[i] = probs
		rp.scaled = append(rp.scaled, scaled)
		rp.raw = append(rp.raw, raw)
	}
	return rp, nil
}

// graphProbes times the calls that are inside extraction from the
// server's point of view but layers of their own: GraphKey hashing, the
// fused Brandes sweep, and a cache-miss extraction per body (what the
// feature cache saves on the warm workloads). It fills the features.*
// and graph.* metrics.
func graphProbes(tr *tracer, bodies []body, picks []int, m *metricSet) error {
	var key, profile, miss acc
	var perTier [len(tiers)]acc
	sweeper := graph.NewSweeper()
	fresh := features.NewExtractor(0)
	graphs := make([]*graph.Graph, 0, len(picks))
	for _, i := range picks {
		prog, err := ir.Parse(bodies[i].text)
		if err != nil {
			return err
		}
		cfg, err := ir.Disassemble(prog)
		if err != nil {
			return err
		}
		g := cfg.G()
		graphs = append(graphs, g)

		id := tr.begin(i, "features", "GraphKey")
		_ = features.GraphKey(g)
		key.add(tr.end(id))

		id = tr.begin(i, "graph", "Sweeper.Profile")
		_ = sweeper.Profile(g)
		profile.add(tr.end(id))

		id = tr.begin(i, "features", "Extractor.Extract(miss)")
		_ = fresh.Extract(g)
		d := tr.end(id)
		miss.add(d)
		if t := bodies[i].tier; t >= 0 {
			perTier[t].add(d)
		}
	}
	m.set("features.graphkey_us_mean", key.mean())
	m.set("graph.profile_us_mean", profile.mean())
	m.set("graph.profile_us_p95", profile.p95())
	m.set("features.extract_us_mean", miss.mean())
	m.set("features.extract_us_p95", miss.p95())
	for t, tier := range tiers {
		m.set("features.extract_us_tier_"+tier.name, perTier[t].mean())
	}

	// Allocation per cache-miss extraction, from the runtime's own
	// counters over a short loop of its own.
	if n := min(len(graphs), 64); n > 0 {
		ext := features.NewExtractor(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, g := range graphs[:n] {
			_ = ext.Extract(g)
		}
		runtime.ReadMemStats(&after)
		m.set("features.extract_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n))
		m.set("features.extract_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return nil
}

// forwardProbes fills the nn.forward_* metrics that the replay's spans
// do not give: allocations per forward pass and the batch-major kernel's
// per-row cost at the server's full batch size.
func forwardProbes(tr *tracer, model *core.Model, scaled [][]float64, m *metricSet) {
	if len(scaled) == 0 {
		return
	}
	ws := model.AcquireWS()
	defer model.ReleaseWS(ws)

	const loops = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loops; i++ {
		_, _ = ws.SafeProbs(scaled[i%len(scaled)]) // errors were checked by the replay
	}
	runtime.ReadMemStats(&after)
	m.set("nn.forward_allocs_per_op", float64(after.Mallocs-before.Mallocs)/loops)

	rows := make([][]float64, serveBatchSize)
	for i := range rows {
		rows[i] = scaled[i%len(scaled)]
	}
	var batch acc
	var dst [][]float64
	for i := 0; i < 20; i++ {
		id := tr.begin(-1, "nn", "Workspace.ProbsBatch(64)")
		dst = ws.ProbsBatch(rows, dst)
		batch.add(tr.end(id))
	}
	m.set("nn.forward_batch64_us_per_row", batch.mean()/serveBatchSize)
}

// batcherQueueWait drives an in-process serve.Batcher at the server's
// default batch size and window from `clients` goroutines and returns
// the mean SubmitV wall time minus engine time: what a request waits for
// batch peers that, at this client count, never come.
func batcherQueueWait(ctx context.Context, model *core.Model, raw [][]float64, clients int, engineUs float64) (float64, error) {
	if len(raw) == 0 {
		return 0, nil
	}
	handle := core.NewHandle(model)
	b := serve.NewBatcher(serve.BatcherConfig{
		BatchSize: serveBatchSize,
		Window:    serveWindow,
		InputDim:  features.NumFeatures,
		NewEngine: func() serve.BatchEngine { return serve.NewHandleEngine(handle, false, 0, nil) },
	})
	defer b.Close()
	const perClient = 120
	walls := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				start := time.Now()
				if _, _, err := b.SubmitV(ctx, raw[(c*perClient+i)%len(raw)]); err != nil {
					errs[c] = err
					return
				}
				walls[c] = append(walls[c], float64(time.Since(start))/1e3)
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for c := range walls {
		if errs[c] != nil {
			return 0, fmt.Errorf("batcher probe: %w", errs[c])
		}
		all = append(all, walls[c]...)
	}
	return math.Max(0, mean(all)-engineUs), nil
}
