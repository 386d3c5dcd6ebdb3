package core

import (
	"fmt"
	"strings"

	"advmal/internal/attacks"
	"advmal/internal/gea"
	"advmal/internal/report"
)

// RenderTableI renders the class distribution like Table I.
func (s *System) RenderTableI() (string, error) {
	rows, err := s.ClassDistribution()
	if err != nil {
		return "", err
	}
	t := report.New("TABLE I: DISTRIBUTION OF IOT SAMPLES ACROSS THE CLASSES",
		"Class types", "# of Samples", "% of Samples")
	for _, r := range rows {
		t.Add(r.Class, r.Count, report.Pct(r.Percent)+"%")
	}
	out := t.String()
	if n := s.Skips.Count(); n > 0 {
		out += fmt.Sprintf("(%d sample(s) skipped during corpus build: %s)\n",
			n, s.Skips)
	}
	return out, nil
}

// RenderTableII renders the feature-category distribution like Table II.
func RenderTableII() string {
	t := report.New("TABLE II: DISTRIBUTION OF EXTRACTED FEATURES",
		"Feature category", "# of features")
	total := 0
	for _, g := range FeatureGroups() {
		t.Add(g.Name, g.Count)
		total += g.Count
	}
	t.Add("Total", total)
	return t.String()
}

// RenderTableIII renders the generic-attack results like Table III. Rows
// with isolated (skipped) samples are annotated below the table.
func RenderTableIII(results []attacks.Result) string {
	t := report.New("TABLE III: EVALUATION USING GENERIC METHODS",
		"Attack Method", "MR (%)", "Avg.FG", "CT (ms)")
	skipped := 0
	for _, r := range results {
		t.Add(r.Attack, report.Pct(r.MR), report.F2(r.AvgFG), report.Ms(r.AvgCT))
		skipped += r.Skipped
	}
	out := t.String()
	if skipped > 0 {
		out += fmt.Sprintf("(%d crafting attempt(s) skipped after per-sample faults)\n", skipped)
	}
	return out
}

// RenderFamilyAttacks renders the K-way attack evaluation: per attack,
// the untargeted per-source-family rows (MR = left the true class,
// evasion = reached benign) and, for attacks with explicit targets, the
// source→target success matrix.
func RenderFamilyAttacks(results []attacks.FamilyResult) string {
	var sb strings.Builder
	for _, res := range results {
		labels := ClassLabels(res.Classes)
		tu := report.New(res.Attack+": untargeted family misclassification",
			"source", "n", "MR (%)", "evasion (%)")
		for _, row := range res.Untargeted {
			if row.Total == 0 {
				continue
			}
			tu.Add(labels[row.Source], row.Total, report.Pct(row.MR), report.Pct(row.EvasionRate))
		}
		sb.WriteString(tu.String())
		if res.Targeted != nil {
			tt := report.New(res.Attack+": targeted success rate (%), source -> target",
				append([]string{"source\\target"}, labels...)...)
			for src, cells := range res.Targeted {
				rowCells := make([]any, 0, len(cells)+1)
				rowCells = append(rowCells, labels[src])
				for tgt, c := range cells {
					if src == tgt || c.Total == 0 {
						rowCells = append(rowCells, "-")
					} else {
						rowCells = append(rowCells, report.Pct(c.Rate))
					}
				}
				tt.Add(rowCells...)
			}
			sb.WriteString(tt.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderGEASize renders Table IV (malware to benign) or, with
// targetMalicious, Table V (benign to malware).
func RenderGEASize(targetMalicious bool, rows []gea.Row) string {
	title := "TABLE IV: GEA MALWARE TO BENIGN MISCLASSIFICATION RATE"
	if targetMalicious {
		title = "TABLE V: GEA BENIGN TO MALWARE MISCLASSIFICATION RATE"
	}
	t := report.New(title, "Size", "# Nodes", "MR (%)", "CT (ms)")
	for _, r := range rows {
		t.Add(string(r.Label), r.TargetNodes, report.Pct(r.MR), report.Ms(r.AvgCT))
	}
	return t.String()
}

// RenderGEAFixed renders Table VI (malware to benign) or, with
// targetMalicious, Table VII (benign to malware).
func RenderGEAFixed(targetMalicious bool, rows []gea.Row) string {
	title := "TABLE VI: GEA MALWARE TO BENIGN, FIXED NUMBER OF NODES"
	if targetMalicious {
		title = "TABLE VII: GEA BENIGN TO MALWARE, FIXED NUMBER OF NODES"
	}
	t := report.New(title, "# Nodes", "# Edges", "MR (%)", "CT (ms)")
	for _, r := range rows {
		t.Add(r.TargetNodes, r.TargetEdges, report.Pct(r.MR), report.Ms(r.AvgCT))
	}
	if len(rows) == 0 {
		return t.String() + "(no rows: no node count has two targets with distinct edge counts in this corpus)\n"
	}
	return t.String()
}

// Render renders the complete report: detector metrics plus every table.
func (s *System) Render(rep *Report) string {
	var sb strings.Builder
	if t, err := s.RenderTableI(); err == nil {
		sb.WriteString(t)
		sb.WriteByte('\n')
	}
	sb.WriteString(RenderTableII())
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "Detector (§IV-C1, malware-positive): %v\n", rep.Detector)
	fmt.Fprintf(&sb, "Detector (paper's benign-positive convention): %v\n\n", rep.PaperConvention)
	sb.WriteString(RenderTableIII(rep.TableIII))
	sb.WriteByte('\n')
	sb.WriteString(RenderGEASize(false, rep.TableIV))
	sb.WriteByte('\n')
	sb.WriteString(RenderGEASize(true, rep.TableV))
	sb.WriteByte('\n')
	sb.WriteString(RenderGEAFixed(false, rep.TableVI))
	sb.WriteByte('\n')
	sb.WriteString(RenderGEAFixed(true, rep.TableVII))
	return sb.String()
}
