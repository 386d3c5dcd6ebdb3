package report

import "fmt"

// Confusion renders a K×K confusion matrix as a Table: one row per true
// class, one column per predicted class, plus per-class recall and
// precision columns. labels name the classes in index order; confusion
// is [true][predicted]. The layout matches the family-classification
// tables in the paper's companion work, so binary and family heads
// print directly comparable matrices.
func Confusion(title string, labels []string, confusion [][]int) *Table {
	headers := append([]string{"true\\pred"}, labels...)
	headers = append(headers, "recall", "precision")
	t := New(title, headers...)

	k := len(labels)
	colTotal := make([]int, k)
	for _, row := range confusion {
		for p, v := range row {
			if p < k {
				colTotal[p] += v
			}
		}
	}
	for c, row := range confusion {
		cells := make([]any, 0, k+3)
		name := fmt.Sprintf("class%d", c)
		if c < len(labels) {
			name = labels[c]
		}
		cells = append(cells, name)
		rowTotal := 0
		for _, v := range row {
			rowTotal += v
		}
		for p := 0; p < k; p++ {
			v := 0
			if p < len(row) {
				v = row[p]
			}
			cells = append(cells, v)
		}
		recall, precision := "-", "-"
		if c < len(row) {
			if rowTotal > 0 {
				recall = Pct(float64(row[c]) / float64(rowTotal))
			}
			if c < k && colTotal[c] > 0 {
				precision = Pct(float64(row[c]) / float64(colTotal[c]))
			}
		}
		cells = append(cells, recall, precision)
		t.Add(cells...)
	}
	return t
}
