// Package features extracts the paper's 23 CFG-based features (Table II)
// from a control flow graph and provides the min-max scaler and the
// distortion validator of Fig. 1.
//
// The 23 features are seven groups: four distribution groups — betweenness
// centrality, closeness centrality, degree centrality, and shortest-path
// length — each summarized by {min, max, median, mean, standard deviation},
// plus three scalar features: graph density, number of edges, and number of
// nodes.
package features

import (
	"fmt"
	"math"
	"sort"

	"advmal/internal/graph"
)

// NumFeatures is the length of a feature vector (Table II).
const NumFeatures = 23

// Group identifies one of the seven feature categories of Table II.
type Group int

// Feature categories, in vector order.
const (
	GroupBetweenness Group = iota + 1
	GroupCloseness
	GroupDegree
	GroupShortestPath
	GroupDensity
	GroupEdges
	GroupNodes
)

var groupNames = map[Group]string{
	GroupBetweenness:  "Betweenness centrality",
	GroupCloseness:    "Closeness centrality",
	GroupDegree:       "Degree centrality",
	GroupShortestPath: "Shortest path",
	GroupDensity:      "Density",
	GroupEdges:        "# of Edges",
	GroupNodes:        "# of Nodes",
}

// String returns the Table II name of the group.
func (g Group) String() string {
	if s, ok := groupNames[g]; ok {
		return s
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Size returns the number of features in the group (Table II).
func (g Group) Size() int {
	switch g {
	case GroupBetweenness, GroupCloseness, GroupDegree, GroupShortestPath:
		return 5
	case GroupDensity, GroupEdges, GroupNodes:
		return 1
	default:
		return 0
	}
}

// Groups lists the seven categories in feature-vector order.
func Groups() []Group {
	return []Group{
		GroupBetweenness, GroupCloseness, GroupDegree,
		GroupShortestPath, GroupDensity, GroupEdges, GroupNodes,
	}
}

var statNames = [5]string{"min", "max", "median", "mean", "std"}

// Names returns the 23 feature names in vector order.
func Names() []string {
	names := make([]string, 0, NumFeatures)
	for _, g := range Groups() {
		if g.Size() == 5 {
			for _, s := range statNames {
				names = append(names, fmt.Sprintf("%s (%s)", g, s))
			}
			continue
		}
		names = append(names, g.String())
	}
	return names
}

// GroupOf returns the category of feature index i in [0, NumFeatures).
func GroupOf(i int) Group {
	switch {
	case i < 5:
		return GroupBetweenness
	case i < 10:
		return GroupCloseness
	case i < 15:
		return GroupDegree
	case i < 20:
		return GroupShortestPath
	case i == 20:
		return GroupDensity
	case i == 21:
		return GroupEdges
	default:
		return GroupNodes
	}
}

// Vector is a 23-dimensional feature vector in the order of Table II.
type Vector []float64

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Summary5 returns {min, max, median, mean, population std} of values.
// An empty input yields all zeros, which is what a degenerate
// (single-node, edge-free) CFG produces.
func Summary5(values []float64) [5]float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return summarySorted(sorted)
}

// summarySorted is Summary5 of values already in ascending order.
func summarySorted(sorted []float64) [5]float64 {
	var s [5]float64
	n := len(sorted)
	if n == 0 {
		return s
	}
	s[0] = sorted[0]
	s[1] = sorted[n-1]
	if n%2 == 1 {
		s[2] = sorted[n/2]
	} else {
		s[2] = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(n)
	s[3] = mean
	var varSum float64
	for _, x := range sorted {
		d := x - mean
		varSum += d * d
	}
	s[4] = math.Sqrt(varSum / float64(n))
	return s
}

// summaryCounts is Summary5 of the multiset holding counts[d] copies of
// float64(d), bit for bit, without materializing or sorting it. Min and
// max are the first and last non-empty buckets and the median is read off
// the cumulative counts. The sum is taken in integers: every partial sum
// of the sorted loop is an integer below 2^53 (at most n² pairs of length
// below n, n ≤ ir.MaxProgramLen), so each float addition there is exact
// and float64(Σ c·d) is the same number. The variance adds (d−mean)²
// once per copy in ascending d, the sorted loop's operation sequence.
func summaryCounts(counts []int) [5]float64 {
	var s [5]float64
	total, sum, lo, hi := 0, 0, -1, -1
	for d, c := range counts {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = d
		}
		hi = d
		total += c
		sum += c * d
	}
	if total == 0 {
		return s
	}
	// at returns the k-th smallest element (0-based) of the multiset.
	at := func(k int) float64 {
		for d, cum := lo, 0; ; d++ {
			if cum += counts[d]; cum > k {
				return float64(d)
			}
		}
	}
	s[0] = float64(lo)
	s[1] = float64(hi)
	if total%2 == 1 {
		s[2] = at(total / 2)
	} else {
		s[2] = (at(total/2-1) + at(total/2)) / 2
	}
	mean := float64(sum) / float64(total)
	s[3] = mean
	var varSum float64
	for d := lo; d <= hi; d++ {
		x := float64(d) - mean
		for c := counts[d]; c > 0; c-- {
			// x*x stays inside the loop, as in summarySorted, so a
			// platform that fuses multiply-add fuses both alike.
			varSum += x * x
		}
	}
	s[4] = math.Sqrt(varSum / float64(total))
	return s
}

// Extract computes the 23-feature vector of g with the fused single-sweep
// engine (graph.Sweeper) on pooled per-worker scratch: one Brandes pass
// per source yields betweenness, closeness and the path-length
// histogram together; the three per-node groups are sorted in the
// worker's buffer and the path group is summarized from its counts. The
// result is bit-for-bit identical to ExtractNaive — the property tests in
// extractor_test.go and served_test.go assert it.
func Extract(g *graph.Graph) Vector {
	var v [NumFeatures]float64
	extract(g, &v)
	return v[:]
}

// ExtractNaive is the seed reference composition: four independent
// all-sources traversals, one per distribution group. It is kept as the
// oracle the fused engine is verified against; production paths use
// Extract or an Extractor.
func ExtractNaive(g *graph.Graph) Vector {
	v := make(Vector, 0, NumFeatures)
	for _, stats := range [][5]float64{
		Summary5(g.BetweennessCentrality()),
		Summary5(g.ClosenessCentrality()),
		Summary5(g.DegreeCentrality()),
		Summary5(g.ShortestPathLengths()),
	} {
		v = append(v, stats[:]...)
	}
	v = append(v, g.Density(), float64(g.M()), float64(g.N()))
	return v
}

// Diff counts the features where a and b differ by more than tol — the
// paper's Avg.FG statistic counts these per crafted adversarial example.
// Vectors of unequal length never agree on the surplus positions: every
// feature index present in only one of the two counts as differing, so
// Diff is symmetric in its arguments.
func Diff(a, b Vector, tol float64) int {
	shared := len(a)
	if len(b) < shared {
		shared = len(b)
	}
	n := len(a) + len(b) - 2*shared
	for i := 0; i < shared; i++ {
		if math.Abs(a[i]-b[i]) > tol {
			n++
		}
	}
	return n
}
