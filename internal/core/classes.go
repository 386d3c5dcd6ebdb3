package core

import (
	"fmt"

	"advmal/internal/nn"
	"advmal/internal/synth"
)

// The class space. The detector head is Softmax(K) with two supported
// widths: the paper's binary operating point (K = 2: benign, malware)
// and the family head (K = NumFamilyClasses: benign plus one class per
// malware family, in synth.MalwareFamilies order). Class 0 is benign in
// both spaces, so collapsing a family prediction to the binary axis is
// simply "class != 0 means malicious" — the invariant nn.Evaluate,
// serve.Label, and the attack harnesses all lean on.

// NumFamilyClasses is the width of the family head: benign + the five
// malware families.
var NumFamilyClasses = len(familyLabels())

// ClassOf maps a sample family onto its family-head class index. The
// synth families are declared benign-first in MalwareFamilies order, so
// the mapping is dense and stable across processes.
func ClassOf(f synth.Family) int {
	c := int(f) - int(synth.Benign)
	if c < 0 || c >= NumFamilyClasses {
		return 0
	}
	return c
}

// ClassName renders a class index as a wire label for a head of width
// classes. The binary head keeps the legacy labels ("benign",
// "malware"); the family head uses the family names. Unknown widths or
// out-of-range indices degrade to a generic but unambiguous label
// rather than lying.
func ClassName(class, classes int) string {
	if classes <= 2 {
		if class == nn.ClassMalware {
			return "malware"
		}
		return "benign"
	}
	fams := familyLabels()
	if classes == len(fams) && class >= 0 && class < len(fams) {
		return fams[class].String()
	}
	return fmt.Sprintf("class%d", class)
}

// ClassLabels returns the wire labels for every class of a width-classes
// head, in class-index order.
func ClassLabels(classes int) []string {
	out := make([]string, classes)
	for c := range out {
		out[c] = ClassName(c, classes)
	}
	return out
}
