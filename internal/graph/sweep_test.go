package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// bitsEqual reports exact (bit-for-bit) float64 slice equality.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// pathHistogram is the oracle for Profile.PathCounts: the histogram of
// ShortestPathLengths, indexed by distance over [0, n).
func pathHistogram(g *Graph) []int {
	h := make([]int, g.N())
	for _, d := range g.ShortestPathLengths() {
		h[int(d)]++
	}
	return h
}

// profileMatches reports whether the fused sweep reproduces the four naive
// traversals: the centralities bit for bit, the path lengths as a
// histogram.
func profileMatches(g *Graph, p *Profile) bool {
	return bitsEqual(p.Betweenness, g.BetweennessCentrality()) &&
		bitsEqual(p.Closeness, g.ClosenessCentrality()) &&
		bitsEqual(p.Degree, g.DegreeCentrality()) &&
		slices.Equal(p.PathCounts, pathHistogram(g))
}

func profileMatchesNaive(t *testing.T, g *Graph, sw *Sweeper) {
	t.Helper()
	if p := sw.Profile(g); !profileMatches(g, p) {
		t.Errorf("n=%d m=%d: fused profile %+v != naive (path histogram %v)", g.N(), g.M(), p, pathHistogram(g))
	}
}

func TestSweepMatchesNaiveDegenerate(t *testing.T) {
	sw := NewSweeper()
	// n = 0, 1, 2 exercise every "too small for this centrality" branch.
	profileMatchesNaive(t, NewBuilder(0).Build(), sw)
	profileMatchesNaive(t, NewBuilder(1).Build(), sw)
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	profileMatchesNaive(t, b.Build(), sw)
	// Self loops (allowed in CFGs) must not perturb any distribution.
	b = NewBuilder(3).AllowSelfLoops()
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 0}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	profileMatchesNaive(t, b.Build(), sw)
}

func TestSweepMatchesNaiveRandom(t *testing.T) {
	sw := NewSweeper() // one sweeper across all cases: exercises scratch reuse
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if rng.Intn(2) == 0 {
			g = RandomDirected(rng, 1+rng.Intn(40), rng.Float64()*0.5)
		} else {
			g = RandomFlow(rng, 1+rng.Intn(40), rng.Float64()*0.3)
		}
		return profileMatches(g, sw.Profile(g))
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

// ladder returns a series of rungs. Each rung leaves its join node
// through width parallel nodes, which all enter the next join node, so
// the shortest-path count from node 0 multiplies by width at every rung.
// Between a join node and its parallel nodes the two counts are equal,
// the case in which the sweep skips its divide.
func ladder(t *testing.T, width, rungs int) *Graph {
	t.Helper()
	b := NewBuilder(1 + rungs*(width+1))
	join := 0
	for range rungs {
		next := join + width + 1
		for k := 1; k <= width; k++ {
			if err := b.AddEdge(join, join+k); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(join+k, next); err != nil {
				t.Fatal(err)
			}
		}
		join = next
	}
	return b.Build()
}

// TestSweepMatchesNaiveLadder pins the divide skip where path counts are
// no longer small integers. At width 3 over 40 rungs they pass 2^53, so
// their sums round. At width 2 over 1,030 rungs they reach +Inf: the
// naive method's Inf/Inf is NaN, and the sweep must take the divide there
// to reproduce it rather than add the dependency unscaled.
func TestSweepMatchesNaiveLadder(t *testing.T) {
	sw := NewSweeper()
	for _, c := range []struct{ width, rungs int }{{3, 40}, {2, 1030}} {
		g := ladder(t, c.width, c.rungs)
		if p := sw.Profile(g); !profileMatches(g, p) {
			t.Errorf("width %d, %d rungs (n=%d): fused profile != naive", c.width, c.rungs, g.N())
		}
	}
}

// FuzzSweepMatchesNaive decodes a graph of at most 64 nodes from the
// fuzz bytes (data[0] is n, then each byte pair is an edge u->v taken mod
// n, self loops and duplicates included) and requires the fused sweep to
// reproduce the four naive traversals bit for bit. One Sweeper profiles
// every input, so stale scratch from a larger graph would show.
func FuzzSweepMatchesNaive(f *testing.F) {
	f.Add([]byte{})                                      // n = 0
	f.Add([]byte{1})                                     // n = 1
	f.Add([]byte{2, 0, 1, 1, 0})                         // n = 2, a 2-cycle
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})             // chain
	f.Add([]byte{4, 0, 1, 0, 2, 1, 3, 2, 3})             // diamond
	f.Add([]byte{4, 0, 0, 0, 1, 1, 1, 1, 2, 2, 0, 2, 3}) // self-loop CFG
	sw := NewSweeper()
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 65
			data = data[1:]
		}
		b := NewBuilder(n).AllowSelfLoops()
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			if err := b.AddEdge(int(data[i])%n, int(data[i+1])%n); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		if p := sw.Profile(g); !profileMatches(g, p) {
			t.Errorf("n=%d m=%d edges %v: fused profile != naive", g.N(), g.M(), g.Edges())
		}
	})
}

// TestSweepScratchReuse: profiling a large graph then a small one must
// not leak stale scratch into the second result, and re-profiling the
// same graph on a warm sweeper must reproduce the cold result.
func TestSweepScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := RandomFlow(rng, 60, 0.2)
	small := RandomFlow(rng, 9, 0.3)
	sw := NewSweeper()
	sw.Profile(big)
	profileMatchesNaive(t, small, sw)
	cold := NewSweeper().Profile(big)
	warm := sw.Profile(big)
	if !bitsEqual(cold.Betweenness, warm.Betweenness) ||
		!bitsEqual(cold.Closeness, warm.Closeness) ||
		!bitsEqual(cold.Degree, warm.Degree) ||
		!slices.Equal(cold.PathCounts, warm.PathCounts) {
		t.Error("warm sweeper diverged from cold sweeper on the same graph")
	}
}

// TestSweepAllocFree: a Sweeper that has seen a graph profiles it, and
// any smaller graph, without allocating.
func TestSweepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := RandomFlow(rng, 80, 0.1)
	small := RandomDirected(rng, 30, 0.2)
	sw := NewSweeper()
	sw.Profile(big)
	if allocs := testing.AllocsPerRun(20, func() {
		sw.Profile(big)
		sw.Profile(small)
	}); allocs != 0 {
		t.Errorf("warm Profile: %v allocs, want 0", allocs)
	}
}

func TestGraphProfileConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomDirected(rng, 15, 0.2)
	p := g.Profile()
	if !bitsEqual(p.Betweenness, g.BetweennessCentrality()) {
		t.Error("Graph.Profile betweenness != naive")
	}
}
