package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"advmal/internal/synth"
)

func TestPercentileNeverOutrunsItsSupport(t *testing.T) {
	for n := 1; n <= 600; n++ {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
			v, used := percentile(sorted, p)
			if used > p {
				t.Fatalf("n=%d p=%g: used %g", n, p, used)
			}
			beyond := n - 1 - int(v)
			if used > 0.5 && beyond < minBeyond {
				t.Fatalf("n=%d p=%g: reported p%g with %d samples beyond it", n, p, used*100, beyond)
			}
			if n >= 10*minBeyond*2 && p <= 0.95 && used != p {
				t.Fatalf("n=%d p=%g: lowered to %g although %d samples support it", n, p, used, n)
			}
		}
	}
	if v, used := percentile(nil, 0.95); v != 0 || used != 0 {
		t.Fatalf("empty input gave %g at p%g", v, used)
	}
}

func TestSteadyNumbersIgnoreOneBadStretch(t *testing.T) {
	// 800 completions at 100/s and 2 ms, then a 10 s stall, then 200
	// slow ones: the stall and the slow stretch land in the last of five
	// groups, and the run reports the median group.
	var cs []completion
	for i := 1; i <= 800; i++ {
		cs = append(cs, completion{end: float64(i) * 0.01, latency: 2})
	}
	for i := 1; i <= 200; i++ {
		cs = append(cs, completion{end: 18 + float64(i)*0.01, latency: 50})
	}
	groups := groupByCompletion(cs, 5)
	if len(groups) != 5 || len(groups[0]) != 200 {
		t.Fatalf("%d groups, first of %d", len(groups), len(groups[0]))
	}
	st := summarize(groups)
	if math.Abs(st.rate-100) > 1e-6 || st.p50 != 2 || st.p95 != 2 || st.used95 != 0.95 {
		t.Fatalf("steady numbers %+v, want rate 100, p50 2, p95 2 at p95", st)
	}
	// Too few completions for five groups that each support a p95.
	if got := len(groupByCompletion(cs[:450], 5)); got != 2 {
		t.Fatalf("450 completions split into %d groups, want 2", got)
	}
	if st := summarize(groupByCompletion(cs[:50], 5)); st.used95 >= 0.95 {
		t.Fatalf("50 completions reported a p95 (used %g)", st.used95)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 1, StartNs: 15, EndNs: 25},
		{ID: 3, Parent: 0, StartNs: 50, EndNs: 90},
	}
	want := []int64{30, 20, 10, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}

	tr := newTracer()
	root := tr.begin(7, "replay", "request")
	child := tr.begin(7, "ir", "Parse")
	tr.end(child)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("parents %d/%d", tr.spans[child].Parent, tr.spans[root].Parent)
	}
	if tr.spans[child].StartNs < tr.spans[root].StartNs || tr.spans[child].EndNs > tr.spans[root].EndNs {
		t.Fatal("child span is not inside its parent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("closing a span out of order did not panic")
		}
	}()
	a := tr.begin(0, "x", "a")
	tr.begin(0, "x", "b")
	tr.end(a)
}

func TestTieredSplices(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 5
	samples, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	a, err := tieredSplices(samples, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != n {
		t.Fatalf("%d bodies, want %d", len(a), n)
	}
	if err := checkColdBodies(a); err != nil {
		t.Fatal(err)
	}
	b, err := tieredSplices(samples, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].text != b[i].text {
			t.Fatalf("body %d differs between two generations from one seed", i)
		}
	}
	c, err := tieredSplices(samples, 6, n)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].key == c[i].key {
			same++
		}
	}
	if same == n {
		t.Fatal("another seed gave the same bodies")
	}

	// The checks the cold workload aborts on.
	dup := append([]body(nil), a...)
	dup[4] = dup[1]
	if checkColdBodies(dup) == nil {
		t.Error("a repeated GraphKey passed the check")
	}
	if checkColdBodies(a[1:]) == nil {
		t.Error("a shifted tier order passed the check")
	}

	stats := map[string]float64{}
	payloadStats(a, stats)
	for _, tier := range tiers {
		mean := stats["mean_nodes_tier_"+tier.name]
		if mean < float64(tier.lo) || mean > float64(tier.hi) {
			t.Errorf("tier %s: mean nodes %g outside [%d,%d]", tier.name, mean, tier.lo, tier.hi)
		}
	}
}

func TestNaturalBodiesKeepTheirSizesAcrossSeeds(t *testing.T) {
	var sets [2][]body
	for i := range sets {
		cfg := synth.DefaultConfig()
		cfg.Seed = int64(i + 1)
		samples, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sets[i], err = naturalBodies(samples, warmSetSize); err != nil {
			t.Fatal(err)
		}
		if len(sets[i]) != warmSetSize {
			t.Fatalf("%d bodies, want %d", len(sets[i]), warmSetSize)
		}
		again, _ := naturalBodies(samples, warmSetSize)
		for k := range again {
			if again[k].text != sets[i][k].text {
				t.Fatalf("body %d differs between two picks from one corpus", k)
			}
		}
	}
	for k := range sets[0] {
		a, b := sets[0][k].nodes, sets[1][k].nodes
		if k > 0 && a < sets[0][k-1].nodes {
			t.Fatalf("bodies are not in order of size at %d", k)
		}
		if d := math.Abs(float64(a - b)); d > 3 && d > 0.1*float64(a) {
			t.Errorf("quantile %d: %d nodes at seed 1, %d at seed 2", k, a, b)
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the names the code emits to the names
// BENCHMARK.json declares, both ways.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range bf.Workloads {
		want = append(want, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", got, want)
	}

	type row struct{ name, unit, better string }
	check := func(table string, defs []metricDef, file []row) {
		if len(defs) != len(file) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", table, len(defs), len(file))
			return
		}
		for i, d := range defs {
			f := file[i]
			if d.Name != f.name || d.Unit != f.unit || d.Better != f.better {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", table, i, d, f)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %q (%q) is not a valid name and unit", table, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: %s is better %q", table, d.Name, d.Better)
			}
		}
	}
	var e2e, layers []row
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, row{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, row{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	seen := map[string]bool{}
	for _, n := range append(append(got, names(endToEnd)...), names(perLayer)...) {
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bf.Paths)
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func TestMetricSetRejectsUnknownAndNonFinite(t *testing.T) {
	for name, v := range map[string]float64{"no.such_metric": 1, "setup_s": math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q, %v) did not panic", name, v)
				}
			}()
			newMetricSet(endToEnd).set(name, v)
		}()
	}
	m := newMetricSet(perLayer)
	if len(m.wire()) != len(perLayer) {
		t.Fatalf("wire form has %d metrics, table %d", len(m.wire()), len(perLayer))
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 6 0 100 1000 200 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil || got != 2.0 {
		t.Fatalf("cpu seconds %g, %v; want 2", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	series := parseMetrics("# HELP x y\nadvmal_requests_total 12\nadvmal_rejected_total{reason=\"queue_full\"} 3\nadvmal_batch_size_sum 1.5e+02\n\nbroken\n")
	if series["advmal_requests_total"] != 12 || series[`advmal_rejected_total{reason="queue_full"}`] != 3 || series["advmal_batch_size_sum"] != 150 {
		t.Fatalf("parsed %v", series)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "no-such"},
		{"-workload", "classify-warm", "-trace", "2"},
		{"-workload", "classify-warm", "-seconds", "0"},
		{"-workload", "classify-warm", "stray"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on standard output", args, out.String())
		}
	}
}

// TestWorkloadsSmoke runs every workload for one second with the traced
// pass: real child processes, real HTTP. Skipped under -short.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns cmd/serve and cmd/gateway")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var log bytes.Buffer
		rep, err := w.run(context.Background(), &runOpts{root: root, seed: 4, seconds: 1, trace: true, log: &log})
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			printReport(&out, rep, trace)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if (!res.Correct && !raceEnabled) || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(table) {
				t.Fatalf("%s trace %v: correct=%v attempted=%d failed=%d metrics=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), out.String())
			}
			for _, d := range table {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or in unit %q", w.name, d.Name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g", w.name, d.Name, v.Value)
				}
			}
		}
		if rep.layers.get("trace.spans") == 0 {
			t.Errorf("%s: the traced pass recorded no span", w.name)
		}
	}
}
