// Package dataset assembles the corpus the detector trains on: it
// disassembles every sample, extracts the 23 CFG features, carries labels,
// and provides the stratified train/test split and Table I style class
// distribution.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/pool"
	"advmal/internal/synth"
)

// Split errors.
var (
	// ErrEmpty indicates an empty dataset where records were required.
	ErrEmpty = errors.New("dataset: empty dataset")
	// ErrBadFraction indicates a test fraction outside (0, 1).
	ErrBadFraction = errors.New("dataset: test fraction must be in (0, 1)")
)

// Labels for the binary detection task.
const (
	LabelBenign  = 0
	LabelMalware = 1
)

// Record is one sample with its extracted feature vector.
type Record struct {
	Sample *synth.Sample
	Raw    features.Vector
	Label  int
}

// Dataset is an ordered collection of records.
type Dataset struct {
	Records []*Record
}

// Options configures corpus assembly.
type Options struct {
	// Workers is the fan-out width; 0 means GOMAXPROCS.
	Workers int
	// SkipBad isolates samples that fail (bad disassembly, a panic in a
	// feature extractor) instead of failing the whole build: the dataset
	// completes on the survivors and the failures are returned in the
	// SkipReport. Without SkipBad any failure aborts the build, but every
	// per-sample failure is still collected — not just the first.
	SkipBad bool
	// Extractor serves feature vectors through the fused sweep engine
	// and its content-keyed cache; nil uses the process-wide shared
	// extractor, so repeated builds over overlapping sample sets hit.
	Extractor *features.Extractor
	// Hook is the pool fault-injection hook, for tests.
	Hook pool.Hook
}

// SkipReport accounts for samples dropped during a SkipBad build.
type SkipReport struct {
	// Total is the number of samples attempted.
	Total int
	// Skipped holds one entry per failed sample, in input order, each
	// carrying the sample's index, name, and cause.
	Skipped []*pool.ItemError
}

// Count returns the number of skipped samples.
func (r *SkipReport) Count() int {
	if r == nil {
		return 0
	}
	return len(r.Skipped)
}

// Err returns the joined per-sample failures, or nil when none.
func (r *SkipReport) Err() error {
	if r.Count() == 0 {
		return nil
	}
	errs := make([]error, len(r.Skipped))
	for i, e := range r.Skipped {
		errs[i] = e
	}
	return errors.Join(errs...)
}

// String summarises the report for progress output.
func (r *SkipReport) String() string {
	if r.Count() == 0 {
		return "no samples skipped"
	}
	names := make([]string, 0, len(r.Skipped))
	for _, e := range r.Skipped {
		names = append(names, e.Name)
	}
	return fmt.Sprintf("skipped %d/%d samples: %s", r.Count(), r.Total, strings.Join(names, ", "))
}

// FromSamplesCtx disassembles every sample and extracts its feature
// vector on the shared worker pool. The output order matches the input
// order regardless of scheduling. The returned SkipReport is never nil;
// with opts.SkipBad it lists the isolated failures, otherwise any failure
// is also returned as the joined error (every failure, with sample name
// and index — not just the first). Cancellation of ctx aborts the build
// regardless of SkipBad.
func FromSamplesCtx(ctx context.Context, samples []*synth.Sample, opts Options) (*Dataset, *SkipReport, error) {
	records := make([]*Record, len(samples))
	err := pool.Run(ctx, len(samples), pool.Options{
		Workers: opts.Workers,
		Hook:    opts.Hook,
		Name:    func(i int) string { return samples[i].Name },
	}, func(_ context.Context, _, i int) error {
		s := samples[i]
		cfg, err := ir.Disassemble(s.Prog)
		if err != nil {
			return err
		}
		label := LabelBenign
		if s.Malicious {
			label = LabelMalware
		}
		records[i] = &Record{
			Sample: s,
			Raw:    opts.Extractor.Extract(cfg.G()),
			Label:  label,
		}
		return nil
	})
	report := &SkipReport{Total: len(samples), Skipped: pool.Failures(err)}
	if ctx.Err() != nil {
		return nil, report, fmt.Errorf("dataset: %w", err)
	}
	if err != nil && !opts.SkipBad {
		return nil, report, fmt.Errorf("dataset: %w", err)
	}
	if report.Count() > 0 {
		kept := make([]*Record, 0, len(records)-report.Count())
		for _, r := range records {
			if r != nil {
				kept = append(kept, r)
			}
		}
		records = kept
	}
	return &Dataset{Records: records}, report, nil
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// CountByLabel returns (benign, malware) counts — the Table I distribution.
func (d *Dataset) CountByLabel() (benign, malware int) {
	for _, r := range d.Records {
		if r.Label == LabelMalware {
			malware++
		} else {
			benign++
		}
	}
	return benign, malware
}

// ByLabel returns the records with the given label, preserving order.
func (d *Dataset) ByLabel(label int) []*Record {
	var out []*Record
	for _, r := range d.Records {
		if r.Label == label {
			out = append(out, r)
		}
	}
	return out
}

// RawVectors returns every record's raw feature vector, in order.
func (d *Dataset) RawVectors() []features.Vector {
	out := make([]features.Vector, len(d.Records))
	for i, r := range d.Records {
		out[i] = r.Raw
	}
	return out
}

// Labels returns every record's label, in order.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Records))
	for i, r := range d.Records {
		out[i] = r.Label
	}
	return out
}

// Split partitions the dataset into train and test with per-class
// (stratified) sampling so both splits preserve the class imbalance.
// testFrac is the fraction of each class assigned to test. Deterministic
// for a given seed.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset, err error) {
	if d.Len() == 0 {
		return nil, nil, ErrEmpty
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadFraction, testFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	train = &Dataset{}
	test = &Dataset{}
	for _, label := range []int{LabelBenign, LabelMalware} {
		recs := d.ByLabel(label)
		idx := rng.Perm(len(recs))
		nTest := int(float64(len(recs)) * testFrac)
		inTest := make([]bool, len(recs))
		for _, i := range idx[:nTest] {
			inTest[i] = true
		}
		for i, r := range recs {
			if inTest[i] {
				test.Records = append(test.Records, r)
			} else {
				train.Records = append(train.Records, r)
			}
		}
	}
	return train, test, nil
}
