// Command benchmark is the repository's one benchmark: program text in,
// verdict out, through the real cmd/serve and cmd/gateway binaries over
// HTTP (cold cache, warm cache, behind the gateway), plus the paper's
// offline pipeline in process, each with a per-layer traced pass.
//
//	bash benchmark/run.sh --workload classify-warm --seed 1 --seconds 10 --trace 0
//	cd benchmark && go run . -workload all -seed 1 -trace 1
//	cd benchmark && go run . -workload all -selfcheck
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with -trace 0, per-layer
// with -trace 1). See README.md for every name.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// runOpts is what one run of one workload is given.
type runOpts struct {
	root    string
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, o *runOpts) (*report, error)
}

var workloads = []workload{
	servingWorkload(servingSpec{name: "classify-cold", cold: true}),
	servingWorkload(servingSpec{name: "classify-warm"}),
	servingWorkload(servingSpec{name: "gateway-warm", gateway: true}),
	{name: "paper-offline", run: runOffline},
}

func servingWorkload(spec servingSpec) workload {
	return workload{name: spec.name, run: func(ctx context.Context, o *runOpts) (*report, error) {
		return runServing(ctx, spec, o)
	}}
}

// report is everything one run produced.
type report struct {
	cond      *conditions
	e2e       *metricSet
	layers    *metricSet
	attempted int
	failed    int
	failures  []string // the first few failed operations, for the log
	problems  []string // reasons the run as a whole does not count
	log       io.Writer
}

func newReport(o *runOpts, workload string) *report {
	return &report{
		cond:   newConditions(o.root, workload, o.seed, o.seconds),
		e2e:    newMetricSet(endToEnd),
		layers: newMetricSet(perLayer),
		log:    o.log,
	}
}

// fail counts one failed operation.
func (r *report) fail(what string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, what)
	}
}

func (r *report) firstFailure() string {
	if len(r.failures) == 0 {
		return "none recorded"
	}
	return r.failures[0]
}

// problem records that the run's numbers are not usable: the workload or
// the trace was not what it claims to be.
func (r *report) problem(what string) { r.problems = append(r.problems, what) }

func (r *report) countPhase(phase string, replies []reply) {
	pc := phaseCount{Phase: phase, Sent: len(replies)}
	for _, rp := range replies {
		if rp.status == 200 {
			pc.OK++
		}
	}
	pc.Failed = pc.Sent - pc.OK
	r.cond.Phases = append(r.cond.Phases, pc)
}

func (r *report) result(trace bool) result {
	set := r.e2e
	if trace {
		set = r.layers
	}
	return result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   set.wire(),
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed      = fs.Int64("seed", 1, "seed every input is generated from")
		seconds   = fs.Float64("seconds", 10, "length of the timed phase")
		trace     = fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics as the result")
		selfcheck = fs.Bool("selfcheck", false, "run each chosen workload twice and compare the end-to-end metrics against their bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "benchmark: -workload must be one of %s, or all\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := &runOpts{root: root, seed: *seed, seconds: *seconds, trace: *trace == 1, log: stdout}
	if *selfcheck {
		err = selfCheck(ctx, chosen, o, stdout)
	} else {
		err = runAll(ctx, chosen, o, stdout)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "benchmark: interrupted; children stopped, temporary files removed")
		return 130
	default:
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// errNotUsable ends a run whose numbers must not be used: a failed
// operation or a broken validity condition.
var errNotUsable = errors.New("the run does not count (see the problems above)")

// runAll runs each workload once and prints its report and result line.
func runAll(ctx context.Context, chosen []workload, o *runOpts, stdout io.Writer) error {
	var bad bool
	for _, w := range chosen {
		rep, err := w.run(ctx, o)
		if err != nil {
			if ctx.Err() != nil {
				return context.Canceled
			}
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(stdout, rep, o.trace)
		if !rep.result(o.trace).Correct {
			bad = true
		}
	}
	if bad {
		return errNotUsable
	}
	return nil
}

// printReport writes the human-readable report and then the result line,
// which must stay the last line of standard output.
func printReport(w io.Writer, rep *report, trace bool) {
	stamp, _ := json.Marshal(rep.cond) // plain struct of strings and numbers: cannot fail
	fmt.Fprintf(w, "conditions %s\n", stamp)
	printMetrics(w, "end-to-end ("+rep.cond.Workload+")", rep.e2e)
	if trace {
		printMetrics(w, "per-layer ("+rep.cond.Workload+")", rep.layers)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "PROBLEM %s\n", p)
	}
	line, _ := json.Marshal(rep.result(trace)) // metric values are finite: see metricSet.set
	fmt.Fprintf(w, "%s\n", line)
}

// selfCheck runs every chosen workload twice back to back and compares
// each end-to-end metric of the two runs against its bound in
// BENCHMARK.json. It is how the bounds were calibrated.
func selfCheck(ctx context.Context, chosen []workload, o *runOpts, stdout io.Writer) error {
	bf, err := loadBenchmarkFile(o.root)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	quiet := *o
	quiet.log = io.Discard
	var exceeded int
	for _, w := range chosen {
		var reps [2]*report
		for i := range reps {
			if reps[i], err = w.run(ctx, &quiet); err != nil {
				if ctx.Err() != nil {
					return context.Canceled
				}
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		fmt.Fprintf(stdout, "%s (seed %d)\n", w.name, o.seed)
		fmt.Fprintf(stdout, "  %-20s %12s %12s %8s %8s\n", "metric", "first", "second", "worse", "bound")
		for _, d := range endToEnd {
			a, b := reps[0].e2e.get(d.Name), reps[1].e2e.get(d.Name)
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if math.Abs(worse) > bounds[d.Name] {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Fprintf(stdout, "  %-20s %12.4f %12.4f %+7.1f%% %7.1f%%%s\n",
				d.Name, a, b, worse*100, bounds[d.Name]*100, mark)
		}
		for i, rep := range reps {
			for _, p := range rep.problems {
				fmt.Fprintf(stdout, "  PROBLEM run %d: %s\n", i+1, p)
				exceeded++
			}
			if rep.failed > 0 {
				fmt.Fprintf(stdout, "  FAILED run %d: %d of %d operations, first: %s\n", i+1, rep.failed, rep.attempted, rep.firstFailure())
				exceeded++
			}
		}
		stable := sameCounts(reps[0].cond, reps[1].cond)
		fmt.Fprintf(stdout, "  seed-fixed counts identical between the two runs: %v\n", stable)
		if !stable {
			exceeded++
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) or condition(s) outside their bounds", exceeded)
	}
	return nil
}

// sameCounts compares what the seed alone decides: the payload
// statistics and every phase that is not ended by the clock.
func sameCounts(a, b *conditions) bool {
	if len(a.Payload) != len(b.Payload) || len(a.Phases) != len(b.Phases) {
		return false
	}
	for k, v := range a.Payload {
		if b.Payload[k] != v {
			return false
		}
	}
	for i, p := range a.Phases {
		if p.Phase != "timed" && p != b.Phases[i] {
			return false
		}
	}
	return true
}
