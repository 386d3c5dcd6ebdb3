package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"advmal/internal/features"
	"advmal/internal/ir"
)

const (
	// loadClients is the closed loop's width: min(nproc, 2). With no more
	// connections than processors no backlog can form, which is also why
	// there is no open-loop phase: a rate sweep here would measure the
	// scheduler, not the program.
	loadClients = 2
	// setupRounds is how often the server side of set-up (spawn, ready,
	// warm-up) is repeated; setup_s uses the median.
	setupRounds = 3
	// coldWarmup is how many distinct bodies, none of them in the timed
	// set, a cold server sees before the clock starts.
	coldWarmup = 300
	// coldBodiesPerSecond sizes the pool of distinct bodies: about one
	// and a half times what the seed serves, so the clock and not the
	// pool ends the phase.
	coldBodiesPerSecond = 700
	// coldVerifyStride picks the cold bodies that get the full oracle
	// comparison and the traced replay; the rest get structural checks.
	coldVerifyStride = 16
	// warmReplayPasses is how often the traced replay walks the working
	// set.
	warmReplayPasses = 20
	// segments is how many equal-count parts of the timed phase
	// throughput, p50 and p95 are each the median of.
	segments = 5
)

// servingSpec is one of the three HTTP workloads.
type servingSpec struct {
	name    string
	cold    bool // distinct tiered GEA splices; otherwise the 32-program working set
	gateway bool // cmd/gateway in front of two replicas; otherwise one replica
}

// cluster is the set of real server processes one run talks to.
type cluster struct {
	replicas []*child
	gateway  *child
}

func (c *cluster) front() *child {
	if c.gateway != nil {
		return c.gateway
	}
	return c.replicas[0]
}

func (c *cluster) stop() {
	if c.gateway != nil {
		c.gateway.stop()
	}
	for _, r := range c.replicas {
		r.stop()
	}
}

// startCluster spawns the servers with default flags and returns once
// every one answers /readyz.
func startCluster(ctx context.Context, serveBin, gatewayBin string, fx *fixture, withGateway bool) (*cluster, error) {
	c := &cluster{}
	n := 1
	if withGateway {
		n = 2
	}
	for i := 0; i < n; i++ {
		r, err := startChild(ctx, fmt.Sprintf("serve[%d]", i), serveBin,
			"-model", fx.modelPath, "-index", fx.indexPath, "-addr", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, r)
	}
	if withGateway {
		addrs := make([]string, len(c.replicas))
		for i, r := range c.replicas {
			addrs[i] = r.addr
		}
		g, err := startChild(ctx, "gateway", gatewayBin, "-backends", strings.Join(addrs, ","), "-addr", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.gateway = g
	}
	return c, nil
}

// runServing is one run of an HTTP workload.
func runServing(ctx context.Context, spec servingSpec, o *runOpts) (*report, error) {
	rep := newReport(o, spec.name)
	rep.cond.ServerFlags = []string{"serve -model det.gob -index corpus.gob -addr 127.0.0.1:0 (batch 64, window 2ms, float tier)"}
	if spec.gateway {
		rep.cond.ServerFlags = append(rep.cond.ServerFlags, "gateway -backends a,b -addr 127.0.0.1:0 (auto hedge)")
	}

	serveBin, gatewayBin, buildTook, err := buildServers(ctx, o.root)
	if err != nil {
		return nil, err
	}
	rep.layers.set("setup.go_build_s", buildTook.Seconds())

	dir, err := newRunDir(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	fx, err := buildFixture(ctx, o.seed, dir)
	if err != nil {
		return nil, err
	}
	fixtureS := time.Since(start).Seconds()

	start = time.Now()
	timed, warmup, err := servingBodies(fx, spec, o)
	if err != nil {
		return nil, err
	}
	bodiesS := time.Since(start).Seconds()
	payloadStats(timed, rep.cond.Payload)

	// The server side of set-up, several times over; the last cluster is
	// the one the clock runs against.
	var cl *cluster
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	var readyS, warmupS, serverSetupS []float64
	for round := 0; round < setupRounds; round++ {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		start = time.Now()
		cl, err = startCluster(ctx, serveBin, gatewayBin, fx, spec.gateway)
		if err != nil {
			return nil, err
		}
		ready := time.Since(start).Seconds()
		replies, wall := runLoad(ctx, loadPlan{url: cl.front().url("/v1/classify"), bodies: warmup, clients: loadClients})
		if round == setupRounds-1 {
			rep.countPhase("warm-up", replies)
		}
		readyS = append(readyS, ready)
		warmupS = append(warmupS, wall.Seconds())
		serverSetupS = append(serverSetupS, ready+wall.Seconds())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.layers.set("setup.fixture_s", fixtureS)
	rep.layers.set("setup.bodies_s", bodiesS)
	rep.layers.set("setup.serve_ready_ms", median(readyS)*1e3)
	rep.layers.set("setup.warmup_s", median(warmupS))
	rep.layers.set("core.model_load_ms", fx.modelLoad.Seconds()*1e3)
	rep.layers.set("index.load_ms", fx.indexLoad.Seconds()*1e3)
	rep.e2e.set("setup_s", fixtureS+bodiesS+median(serverSetupS))

	// The timed phase, untraced.
	children := append([]*child(nil), cl.replicas...)
	if cl.gateway != nil {
		children = append(children, cl.gateway)
	}
	before, err := snapshotChildren(children)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPUSeconds()
	duration := time.Duration(o.seconds * float64(time.Second))
	replies, _ := runLoad(ctx, loadPlan{
		url: cl.front().url("/v1/classify"), bodies: timed, clients: loadClients,
		cycle: !spec.cold, duration: duration,
	})
	selfCPU := selfCPUSeconds() - selfBefore
	after, err := snapshotChildren(children)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Check every output. Warm bodies are few, so every reply gets the
	// full comparison; cold bodies get it on a fixed stride.
	sent := len(replies)
	verify := func(bodyIdx int) bool { return !spec.cold || bodyIdx%coldVerifyStride == 0 }
	want := map[int]expected{}
	var ok []completion
	for _, r := range replies {
		v, err := checkStructure(r)
		if err == nil && verify(r.body) {
			w, seen := want[r.body]
			if !seen {
				if w, err = expect(fx.model, timed[r.body].text); err != nil {
					return nil, err
				}
				want[r.body] = w
			}
			err = checkVerdict(v, w, fx.model.Version)
		}
		if err != nil {
			rep.fail(fmt.Sprintf("request for body %d: %v", r.body, err))
			continue
		}
		ok = append(ok, completion{end: r.end.Seconds(), latency: float64(r.latency) / 1e6})
	}
	rep.attempted = sent
	rep.cond.Phases = append(rep.cond.Phases, phaseCount{"timed", sent, len(ok), sent - len(ok)})
	rep.cond.Verified = len(want)
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded; first failure: %s", spec.name, rep.firstFailure())
	}

	st := summarize(groupByCompletion(ok, segments))
	if st.used95 < 0.95 {
		rep.problem(fmt.Sprintf("only %d samples: p95 reported at p%.1f", len(ok), st.used95*100))
	}
	pooled := make([]float64, len(ok))
	for i, c := range ok {
		pooled[i] = c.latency
	}
	p99, _ := percentile(sortedCopy(pooled), 0.99)
	serverCPU := after.cpu - before.cpu
	rep.e2e.set("throughput_per_s", st.rate)
	rep.e2e.set("latency_p50_ms", st.p50)
	rep.e2e.set("latency_p95_ms", st.p95)
	rep.layers.set("serve.cpu_ms_per_op", serverCPU*1e3/float64(len(ok)))
	rep.e2e.set("peak_rss_mb", after.peakRSS)
	rep.layers.set("serve.latency_mean_ms", mean(pooled))
	rep.layers.set("serve.latency_p99_ms", p99)
	rep.layers.set("loadgen.cpu_ms_per_req", selfCPU*1e3/float64(sent))
	share := selfCPU / (selfCPU + serverCPU)
	rep.layers.set("loadgen.cpu_share", share)
	if share > 0.35 {
		rep.problem(fmt.Sprintf("generator used %.0f%% of all CPU: it, not the server, is being measured", share*100))
	}
	scrapedLayers(rep, before, after, spec)

	if o.trace {
		if err := traceServing(ctx, rep, spec, fx, cl, timed, want, o); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// servingBodies generates the timed set and the warm-up set.
func servingBodies(fx *fixture, spec servingSpec, o *runOpts) (timed, warmup []body, err error) {
	if !spec.cold {
		timed, err = naturalBodies(fx.sys.Samples, warmSetSize)
		if err != nil {
			return nil, nil, err
		}
		// Every body twice: the second pass already hits the cache.
		return timed, append(append([]body(nil), timed...), timed...), nil
	}
	n := int(math.Ceil(o.seconds * coldBodiesPerSecond))
	n += (len(tiers) - n%len(tiers)) % len(tiers)
	all, err := tieredSplices(fx.sys.Samples, o.seed, n+coldWarmup)
	if err != nil {
		return nil, nil, err
	}
	if err := checkColdBodies(all); err != nil {
		return nil, nil, err
	}
	return all[:n], all[n:], nil
}

// childrenSnapshot is the children's CPU, memory and /metrics at one
// instant, summed (CPU, series) or maximised (memory) over them.
type childrenSnapshot struct {
	cpu     float64
	peakRSS float64
	series  map[string]float64
}

func snapshotChildren(children []*child) (childrenSnapshot, error) {
	s := childrenSnapshot{series: map[string]float64{}}
	for _, c := range children {
		cpu, err := c.cpuSeconds()
		if err != nil {
			return s, fmt.Errorf("%s: %w", c.name, err)
		}
		s.cpu += cpu
		rss, err := peakRSSMB(c.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("%s: %w", c.name, err)
		}
		s.peakRSS = math.Max(s.peakRSS, rss)
		series, err := c.scrape()
		if err != nil {
			return s, fmt.Errorf("%s: %w", c.name, err)
		}
		for k, v := range series {
			s.series[k] += v
		}
	}
	return s, nil
}

// scrapedLayers fills the informational metrics read from the children's
// own /metrics. They double as workload-validity checks: the cold
// workload must never hit the feature cache and the warm ones always.
func scrapedLayers(rep *report, before, after childrenSnapshot, spec servingSpec) {
	delta := func(name string) (float64, bool) {
		a, ok := after.series[name]
		if !ok {
			fmt.Fprintf(rep.log, "warning: series %s absent from /metrics; its metric stays 0\n", name)
			return 0, false
		}
		return a - before.series[name], true
	}
	ratio := func(metric, num, den string, denIsTotal bool) (float64, bool) {
		n, ok1 := delta(num)
		d, ok2 := delta(den)
		if !ok1 || !ok2 {
			return 0, false
		}
		if !denIsTotal {
			d += n
		}
		if d == 0 {
			return 0, false
		}
		rep.layers.set(metric, n/d)
		return n / d, true
	}
	if hit, ok := ratio("features.cache_hit_ratio", "advmal_feature_cache_hits_total", "advmal_feature_cache_misses_total", false); ok {
		switch {
		case spec.cold && hit != 0:
			rep.problem(fmt.Sprintf("cold workload hit the feature cache (ratio %.4f)", hit))
		case !spec.cold && hit < minWarmHitRatio:
			rep.problem(fmt.Sprintf("warm workload missed the feature cache (hit ratio %.4f)", hit))
		}
	}
	ratio("serve.batcher.batch_size_mean", "advmal_batch_size_sum", "advmal_batch_size_count", true)
	if spec.gateway {
		ratio("gateway.key_cache_hit_ratio", "gateway_key_cache_hits_total", "gateway_key_cache_misses_total", false)
		ratio("gateway.hedge_ratio", "gateway_hedges_total", "gateway_requests_total", true)
	}
}

// traceServing is the traced pass: after the untraced timed phase and in
// the benchmark's own process, a fixed subsample of the bodies that were
// sent is replayed through the public functions of each layer, one span
// per call.
func traceServing(ctx context.Context, rep *report, spec servingSpec, fx *fixture, cl *cluster, timed []body, want map[int]expected, o *runOpts) error {
	cost := spanCost(100000)
	tr := newTracer()
	traceStart := time.Now()

	var picks, distinct []int
	ext := features.NewExtractor(0)
	if spec.cold {
		// The bodies the oracle already has a verdict for: every
		// coldVerifyStride-th one that was sent.
		for i := range want {
			picks = append(picks, i)
		}
		sort.Ints(picks)
		distinct = picks
	} else {
		for i := range timed {
			distinct = append(distinct, i)
			prog, err := ir.Parse(timed[i].text)
			if err != nil {
				return err
			}
			cfg, err := ir.Disassemble(prog)
			if err != nil {
				return err
			}
			ext.Extract(cfg.G()) // warm the cache the way the server's warm-up did
		}
		for pass := 0; pass < warmReplayPasses; pass++ {
			picks = append(picks, distinct...)
		}
	}

	rp, err := replayPath(tr, fx, timed, picks, ext, true)
	if err != nil {
		return err
	}
	// The replay is its own check: the staged path must give the
	// probabilities the oracle's Model.Classify gives.
	for _, i := range distinct {
		if err := sameProbs(rp.probs[i], want[i].probs); err != nil {
			rep.problem(fmt.Sprintf("traced replay of body %d: %v: the trace does not follow the verdict path", i, err))
		}
	}
	if err := graphProbes(tr, timed, distinct, rep.layers); err != nil {
		return err
	}
	forwardProbes(tr, fx.model, rp.scaled, rep.layers)

	m := rep.layers
	rp.setMetrics(m)
	if !spec.cold {
		m.set("features.extract_hit_us_mean", rp.extract.mean())
	}
	wait, err := batcherQueueWait(ctx, fx.model, rp.raw, loadClients, rp.scale.mean()+rp.forward.mean())
	if err != nil {
		return err
	}
	m.set("serve.batcher.queue_wait_us_mean", wait)

	hop := 0.0
	if spec.gateway {
		if hop, err = gatewayHop(ctx, cl, timed); err != nil {
			return err
		}
		m.set("gateway.hop_us_p50", hop)
	}

	// The stages of one request, summed, against what the client saw.
	stageSum := rp.parse.mean() + rp.disassemble.mean() + rp.extract.mean() + rp.scale.mean() +
		wait + rp.forward.mean() + rp.search.mean() + rp.encode.mean() + hop
	m.set("serve.stage_sum_us_mean", stageSum)
	residual := 1 - stageSum/(m.get("serve.latency_mean_ms")*1e3)
	m.set("serve.http_residual_ratio", residual)
	if residual < residualMin || residual > residualMax {
		rep.problem(fmt.Sprintf("stages sum to %.0f us of a %.0f us mean latency (residual %.2f outside [%.2f, %.2f]): the trace does not explain the request",
			stageSum, m.get("serve.latency_mean_ms")*1e3, residual, residualMin, residualMax))
	}
	return finishTrace(rep, tr, cost, time.Since(traceStart), o)
}

// The share of mean client latency the summed stages may leave
// unexplained (HTTP, loopback, scheduling): 0.07 to 0.12 at the seed.
// The stages are timed in another process at another moment, so the
// range is wide; it catches a trace that misses or double-counts a
// stage, not a noisy minute.
const (
	residualMin = -0.25
	residualMax = 0.50
)

// minWarmHitRatio is the feature-cache hit ratio below which a warm
// workload is not warm. Behind the gateway a hedged request lands on the
// replica that does not own the key and misses, so it is not 1.
const minWarmHitRatio = 0.95

// gatewayHop sends the working set over one connection alternately
// through the gateway and straight to the replica that owns the body,
// and returns the difference of the two median latencies in us.
func gatewayHop(ctx context.Context, cl *cluster, bodies []body) (float64, error) {
	const rounds = 5
	clients := map[*child]*http.Client{}
	for _, c := range append([]*child{cl.gateway}, cl.replicas...) {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		clients[c] = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	start := time.Now()
	one := func(c *child, i int) (reply, error) {
		if err := ctx.Err(); err != nil {
			return reply{}, err
		}
		r := send(clients[c], c.url("/v1/classify"), i, bodies[i].text, start)
		if r.status != http.StatusOK {
			return r, fmt.Errorf("gateway hop probe: request via %s answered %d", c.name, r.status)
		}
		return r, nil
	}
	// The owner of a body is the replica whose request counter moves
	// when the body goes through the gateway.
	owner := make([]*child, len(bodies))
	for i := range bodies {
		before, err := cl.replicas[0].scrape()
		if err != nil {
			return 0, err
		}
		if _, err := one(cl.gateway, i); err != nil {
			return 0, err
		}
		after, err := cl.replicas[0].scrape()
		if err != nil {
			return 0, err
		}
		owner[i] = cl.replicas[1]
		if after["advmal_requests_total"] > before["advmal_requests_total"] {
			owner[i] = cl.replicas[0]
		}
	}
	var via, direct []float64
	for round := 0; round < rounds; round++ {
		for i := range bodies {
			r, err := one(cl.gateway, i)
			if err != nil {
				return 0, err
			}
			via = append(via, float64(r.latency)/1e3)
			if r, err = one(owner[i], i); err != nil {
				return 0, err
			}
			direct = append(direct, float64(r.latency)/1e3)
		}
	}
	return median(via) - median(direct), nil
}

// finishTrace fills the trace.* metrics and writes the span file.
func finishTrace(rep *report, tr *tracer, cost, tracedWall time.Duration, o *runOpts) error {
	overhead := float64(len(tr.spans)) * float64(cost) / float64(tracedWall)
	rep.layers.set("trace.spans", float64(len(tr.spans)))
	rep.layers.set("trace.span_cost_ns", float64(cost))
	rep.layers.set("trace.overhead_ratio", overhead)
	if overhead >= 0.02 {
		rep.problem(fmt.Sprintf("tracing overhead %.3f is 2%% or more of the traced pass", overhead))
	}
	path, err := tr.write(filepath.Join(o.root, "benchmark", "out"), rep.cond.Workload, rep.cond)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(rep.log, "trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
