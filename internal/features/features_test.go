package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"advmal/internal/graph"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTableIIStructure(t *testing.T) {
	// Table II: 7 categories, 4 of size 5 and 3 of size 1, 23 total.
	groups := Groups()
	if len(groups) != 7 {
		t.Fatalf("Groups() = %d categories, want 7", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Size()
	}
	if total != NumFeatures || NumFeatures != 23 {
		t.Errorf("total features = %d, want 23", total)
	}
	wantSizes := map[Group]int{
		GroupBetweenness: 5, GroupCloseness: 5, GroupDegree: 5,
		GroupShortestPath: 5, GroupDensity: 1, GroupEdges: 1, GroupNodes: 1,
	}
	for g, want := range wantSizes {
		if g.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", g, g.Size(), want)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != NumFeatures {
		t.Fatalf("Names() = %d entries, want %d", len(names), NumFeatures)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" {
			t.Error("empty feature name")
		}
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	if names[0] != "Betweenness centrality (min)" {
		t.Errorf("names[0] = %q", names[0])
	}
	if names[22] != "# of Nodes" {
		t.Errorf("names[22] = %q", names[22])
	}
}

func TestGroupOfCoversVector(t *testing.T) {
	counts := map[Group]int{}
	for i := 0; i < NumFeatures; i++ {
		counts[GroupOf(i)]++
	}
	for _, g := range Groups() {
		if counts[g] != g.Size() {
			t.Errorf("GroupOf assigns %d features to %v, want %d", counts[g], g, g.Size())
		}
	}
}

func TestGroupString(t *testing.T) {
	if GroupDensity.String() != "Density" {
		t.Errorf("GroupDensity = %q", GroupDensity)
	}
	if Group(99).String() == "" {
		t.Error("unknown group must render something")
	}
}

func TestSummary5(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want [5]float64 // min, max, median, mean, std
	}{
		{"empty", nil, [5]float64{}},
		{"single", []float64{3}, [5]float64{3, 3, 3, 3, 0}},
		{"odd", []float64{3, 1, 2}, [5]float64{1, 3, 2, 2, math.Sqrt(2.0 / 3.0)}},
		{"even", []float64{4, 1, 3, 2}, [5]float64{1, 4, 2.5, 2.5, math.Sqrt(1.25)}},
		{"constant", []float64{5, 5, 5}, [5]float64{5, 5, 5, 5, 0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Summary5(tc.in)
			for i := range got {
				if !almostEqual(got[i], tc.want[i]) {
					t.Errorf("Summary5(%v)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestSummary5DoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summary5(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summary5 mutated its input")
	}
}

// TestSummaryCountsMatchesSummary5: the histogram summary equals Summary5
// of the expanded multiset bit for bit, on fixed edge cases and on random
// small-integer histograms with counts up to 1e5.
func TestSummaryCountsMatchesSummary5(t *testing.T) {
	check := func(counts []int) bool {
		var expanded []float64
		for d, c := range counts {
			for ; c > 0; c-- {
				expanded = append(expanded, float64(d))
			}
		}
		got, want := summaryCounts(counts), Summary5(expanded)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("counts %v: summaryCounts %v != Summary5 %v", counts, got, want)
				return false
			}
		}
		return true
	}
	for _, counts := range [][]int{
		nil,             // empty
		{0, 0, 0},       // empty buckets only
		{0, 1},          // a single value
		{0, 0, 0, 9},    // all equal
		{0, 3, 0, 4},    // odd total
		{0, 2, 2},       // even total, median between buckets
		{0, 5, 1, 0, 6}, // even total, median inside a bucket
		{0, 100000, 1, 99999, 0, 3},
	} {
		check(counts)
	}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := []int{2, 10, 1000, 100001}[rng.Intn(4)]
		counts := make([]int, 1+rng.Intn(12))
		for d := 1; d < len(counts); d++ {
			if rng.Intn(3) > 0 {
				counts[d] = rng.Intn(scale)
			}
		}
		return check(counts)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func buildPath(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestExtractKnownGraph(t *testing.T) {
	g := buildPath(t, 3) // 0->1->2
	v := Extract(g)
	if len(v) != NumFeatures {
		t.Fatalf("Extract length = %d, want %d", len(v), NumFeatures)
	}
	// Scalar tail: density, edges, nodes.
	if !almostEqual(v[20], 2.0/6.0) {
		t.Errorf("density = %v, want %v", v[20], 2.0/6.0)
	}
	if v[21] != 2 || v[22] != 3 {
		t.Errorf("edges/nodes = %v/%v, want 2/3", v[21], v[22])
	}
	// Betweenness: only the middle node (0.5); max is index 1.
	if !almostEqual(v[1], 0.5) {
		t.Errorf("betweenness max = %v, want 0.5", v[1])
	}
	// Shortest paths multiset {1,1,2}: min 1, max 2, median 1, mean 4/3.
	if !almostEqual(v[15], 1) || !almostEqual(v[16], 2) || !almostEqual(v[17], 1) || !almostEqual(v[18], 4.0/3.0) {
		t.Errorf("shortest-path stats = %v", v[15:20])
	}
}

func TestExtractDegenerateGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	v := Extract(g)
	for i, x := range v[:22] {
		if x != 0 {
			t.Errorf("feature %d = %v on single-node graph, want 0", i, x)
		}
	}
	if v[22] != 1 {
		t.Errorf("nodes = %v, want 1", v[22])
	}
}

// TestExtractRelabelInvariance: features are graph invariants.
func TestExtractRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomFlow(rng, 4+rng.Intn(25), 0.1)
		perm := rng.Perm(g.N())
		h, err := g.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		a, b := Extract(g), Extract(h)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				t.Fatalf("feature %d (%s) not relabel-invariant: %v vs %v",
					i, Names()[i], a[i], b[i])
			}
		}
	}
}

func TestExtractAlwaysFinite(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDirected(rng, 1+rng.Intn(30), rng.Float64()*0.4)
		for _, x := range Extract(g) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestDiff(t *testing.T) {
	a := Vector{0, 0.5, 1}
	b := Vector{0, 0.6, 1}
	if got := Diff(a, b, 1e-3); got != 1 {
		t.Errorf("Diff = %d, want 1", got)
	}
	if got := Diff(a, b, 0.2); got != 0 {
		t.Errorf("Diff with loose tol = %d, want 0", got)
	}
	if got := Diff(a, a, 1e-9); got != 0 {
		t.Errorf("Diff(a,a) = %d, want 0", got)
	}
}

// TestDiffLengthMismatch is the regression test for the Avg.FG
// under-count: features present in only one vector must count as
// differing, in both argument orders. The seed implementation silently
// ignored b's tail whenever len(b) > len(a) (and a's tail in the
// mirrored call), so this test fails against it.
func TestDiffLengthMismatch(t *testing.T) {
	a := Vector{0, 0.5, 1}
	short := Vector{0} // agrees on the shared prefix
	if got := Diff(a, short, 1e-3); got != 2 {
		t.Errorf("Diff(a, short) = %d, want 2 (surplus features differ)", got)
	}
	if got := Diff(short, a, 1e-3); got != 2 {
		t.Errorf("Diff(short, a) = %d, want 2 (surplus features differ)", got)
	}
	// Shared-prefix disagreement and surplus both count.
	if got := Diff(a, Vector{1}, 1e-3); got != 3 {
		t.Errorf("Diff(a, {1}) = %d, want 3", got)
	}
	if got := Diff(Vector{1}, a, 1e-3); got != 3 {
		t.Errorf("Diff({1}, a) = %d, want 3", got)
	}
	// Symmetry on random-ish unequal lengths.
	b := Vector{0, 0.5, 1, 2, 3}
	if x, y := Diff(a, b, 1e-3), Diff(b, a, 1e-3); x != y || x != 2 {
		t.Errorf("Diff asymmetric: %d vs %d, want 2", x, y)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares backing array")
	}
}
