package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one metric the benchmark emits. The two tables below
// are the single source of the names; BENCHMARK.json repeats them and a
// test pins the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (see README "One metric set, four deployments" for
// what an operation is on each workload), and none is ever zero.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the single-layer metrics of the traced run. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ir.parse_us_mean", "us", "lower"},
	{"ir.disassemble_us_mean", "us", "lower"},
	{"features.graphkey_us_mean", "us", "lower"},
	{"graph.profile_us_mean", "us", "lower"},
	{"graph.profile_us_p95", "us", "lower"},
	{"features.extract_us_mean", "us", "lower"},
	{"features.extract_us_p95", "us", "lower"},
	{"features.extract_us_tier_s", "us", "lower"},
	{"features.extract_us_tier_m", "us", "lower"},
	{"features.extract_us_tier_l", "us", "lower"},
	{"features.extract_hit_us_mean", "us", "lower"},
	{"features.extract_allocs_per_op", "count", "lower"},
	{"features.extract_bytes_per_op", "B", "lower"},
	{"features.cache_hit_ratio", "ratio", "higher"},
	{"features.scale_us_mean", "us", "lower"},
	{"serve.batcher.queue_wait_us_mean", "us", "lower"},
	{"serve.batcher.batch_size_mean", "count", "higher"},
	{"nn.forward_us_mean", "us", "lower"},
	{"nn.forward_allocs_per_op", "count", "lower"},
	{"nn.forward_batch64_us_per_row", "us", "lower"},
	{"index.search_us_mean", "us", "lower"},
	{"serve.encode_us_mean", "us", "lower"},
	{"serve.stage_sum_us_mean", "us", "lower"},
	{"serve.http_residual_ratio", "ratio", "lower"},
	{"serve.latency_mean_ms", "ms", "lower"},
	{"serve.latency_p99_ms", "ms", "lower"},
	{"gateway.hop_us_p50", "us", "lower"},
	{"gateway.key_cache_hit_ratio", "ratio", "higher"},
	{"gateway.hedge_ratio", "ratio", "lower"},
	{"core.model_load_ms", "ms", "lower"},
	{"index.load_ms", "ms", "lower"},
	{"setup.serve_ready_ms", "ms", "lower"},
	{"setup.fixture_s", "s", "lower"},
	{"setup.bodies_s", "s", "lower"},
	{"setup.warmup_s", "s", "lower"},
	{"setup.go_build_s", "s", "lower"},
	{"serve.cpu_ms_per_op", "ms", "lower"},
	{"loadgen.cpu_ms_per_req", "ms", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"offline.corpus_samples_per_s", "1/s", "higher"},
	{"offline.train_samples_per_s", "1/s", "higher"},
	{"offline.attack_crafts_per_s", "1/s", "higher"},
	{"offline.gea_splices_per_s", "1/s", "higher"},
	{"offline.classify_per_s", "1/s", "higher"},
	{"offline.round_s", "s", "lower"},
	{"synth.generate_samples_per_s", "1/s", "higher"},
	{"dataset.build_warm_samples_per_s", "1/s", "higher"},
	{"nn.trainstep_us_mean", "us", "lower"},
	{"nn.reduce_us_mean", "us", "lower"},
	{"nn.optimizer_step_us_mean", "us", "lower"},
	{"nn.epoch_ms_w1", "ms", "lower"},
	{"nn.epoch_ms_wN", "ms", "lower"},
	{"nn.train_scaling_eff", "ratio", "higher"},
	{"nn.lossgrad_us_mean", "us", "lower"},
	{"nn.jacobian_us_mean", "us", "lower"},
	{"attacks.cw_ms_per_craft", "ms", "lower"},
	{"attacks.deepfool_ms_per_craft", "ms", "lower"},
	{"attacks.elasticnet_ms_per_craft", "ms", "lower"},
	{"attacks.fgsm_ms_per_craft", "ms", "lower"},
	{"attacks.jsma_ms_per_craft", "ms", "lower"},
	{"attacks.mim_ms_per_craft", "ms", "lower"},
	{"attacks.pgd_ms_per_craft", "ms", "lower"},
	{"attacks.vam_ms_per_craft", "ms", "lower"},
	{"gea.merge_us_mean", "us", "lower"},
	{"gea.verify_us_mean", "us", "lower"},
	{"gea.ct_ms_min", "ms", "lower"},
	{"gea.ct_ms_median", "ms", "lower"},
	{"gea.ct_ms_max", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.span_cost_ns", "ns", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the values of one table. Setting a name the table
// does not define is a bug in the harness, so it panics: that is what
// keeps the code and BENCHMARK.json from drifting apart silently.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.values[d.Name] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %s is %v", name, v))
	}
	m.values[name] = v
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

func (m *metricSet) wire() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// printMetrics writes one "name value unit" line per metric, sorted the
// way the table lists them.
func printMetrics(w io.Writer, title string, m *metricSet) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range m.defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, m.values[d.Name], d.Unit)
	}
}
