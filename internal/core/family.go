package core

import (
	"fmt"

	"advmal/internal/nn"
	"advmal/internal/report"
	"advmal/internal/synth"
)

// familyLabels assigns a dense class label per family.
func familyLabels() []synth.Family {
	return append([]synth.Family{synth.Benign}, synth.MalwareFamilies()...)
}

// FamilyMetrics reports the family head's multi-class performance:
// overall accuracy and the full confusion matrix, whose rows give the
// per-family recall — the label-extrapolation quality the paper's intro
// refers to ("the type of the malicious software can be identified
// through malware family-level classification").
type FamilyMetrics struct {
	Accuracy  float64
	Confusion [][]int // [true][predicted], class-index order
	N         int
}

// EvaluateFamilyHead evaluates the system's own network as a family
// classifier on the held-out split. It requires a family-head system
// (Config.Classes == NumFamilyClasses), where TestY already carries
// family class labels; the binary operating point of the same network is
// EvaluateTest, whose metrics collapse family predictions to
// malicious-vs-benign.
func (s *System) EvaluateFamilyHead() (*FamilyMetrics, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	k := s.Net.NumClasses()
	if k != NumFamilyClasses {
		return nil, fmt.Errorf("core: family head: model has %d classes, want %d", k, NumFamilyClasses)
	}
	m := &FamilyMetrics{Confusion: make([][]int, k), N: len(s.TestX)}
	for i := range m.Confusion {
		m.Confusion[i] = make([]int, k)
	}
	correct := 0
	ws := s.Net.WS()
	for i, x := range s.TestX {
		truth, pred := s.TestY[i], ws.Predict(x)
		m.Confusion[truth][pred]++
		if pred == truth {
			correct++
		}
	}
	if m.N > 0 {
		m.Accuracy = float64(correct) / float64(m.N)
	}
	return m, nil
}

// Collapse folds the K-way confusion matrix onto the binary
// malicious-vs-benign axis (class 0 benign, everything else malicious)
// and returns the paper's Table I operating-point metrics. This is the
// acceptance contract for the family head: collapsed accuracy must
// reproduce the binary detector's.
func (m *FamilyMetrics) Collapse() nn.Metrics {
	var b nn.Metrics
	b.N = m.N
	for t, row := range m.Confusion {
		bt := nn.ClassBenign
		if t != 0 {
			bt = nn.ClassMalware
		}
		for p, v := range row {
			bp := nn.ClassBenign
			if p != 0 {
				bp = nn.ClassMalware
			}
			b.Confusion[bt][bp] += v
		}
	}
	tn := b.Confusion[nn.ClassBenign][nn.ClassBenign]
	fp := b.Confusion[nn.ClassBenign][nn.ClassMalware]
	fn := b.Confusion[nn.ClassMalware][nn.ClassBenign]
	tp := b.Confusion[nn.ClassMalware][nn.ClassMalware]
	if b.N > 0 {
		b.Accuracy = float64(tn+tp) / float64(b.N)
	}
	if fn+tp > 0 {
		b.FNR = float64(fn) / float64(fn+tp)
	}
	if fp+tn > 0 {
		b.FPR = float64(fp) / float64(fp+tn)
	}
	return b
}

// String renders the confusion matrix with per-family recall and
// precision, titled with the overall accuracy.
func (m *FamilyMetrics) String() string {
	return report.Confusion(
		fmt.Sprintf("Family head confusion (accuracy %.2f%%, n=%d)", m.Accuracy*100, m.N),
		ClassLabels(len(m.Confusion)), m.Confusion).String()
}
