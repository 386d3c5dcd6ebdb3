package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, b *Builder, u, v int) {
	t.Helper()
	if err := b.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// path returns 0->1->...->n-1.
func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		mustEdge(t, b, i, i+1)
	}
	return b.Build()
}

// cycle returns 0->1->...->n-1->0.
func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		mustEdge(t, b, i, (i+1)%n)
	}
	return b.Build()
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	tests := []struct{ u, v int }{
		{-1, 0}, {0, -1}, {3, 0}, {0, 3}, {5, 5},
	}
	for _, tc := range tests {
		b := NewBuilder(3)
		if err := b.AddEdge(tc.u, tc.v); !errors.Is(err, ErrNodeRange) {
			t.Errorf("AddEdge(%d,%d) = %v, want ErrNodeRange", tc.u, tc.v, err)
		}
	}
}

func TestBuilderSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop without AllowSelfLoops = %v, want ErrSelfLoop", err)
	}
	b = NewBuilder(2).AllowSelfLoops()
	mustEdge(t, b, 1, 1)
	g := b.Build()
	if !g.HasEdge(1, 1) {
		t.Error("self loop missing after AllowSelfLoops")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder(2)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1 after duplicate AddEdge", g.M())
	}
}

func TestBuildDeterministicOrder(t *testing.T) {
	b1 := NewBuilder(3)
	mustEdge(t, b1, 0, 2)
	mustEdge(t, b1, 0, 1)
	mustEdge(t, b1, 2, 1)
	b2 := NewBuilder(3)
	mustEdge(t, b2, 2, 1)
	mustEdge(t, b2, 0, 1)
	mustEdge(t, b2, 0, 2)
	if !b1.Build().Equal(b2.Build()) {
		t.Error("graphs built from permuted edge insertions differ")
	}
}

// TestBuildAdjacencySlab: the out- and in-lists carved from one array
// each are sorted, mirror each other, and are capped at their length,
// so appending to one cannot overwrite its neighbour.
func TestBuildAdjacencySlab(t *testing.T) {
	g := RandomDirected(rand.New(rand.NewSource(4)), 30, 0.2)
	in := 0
	for u := 0; u < g.N(); u++ {
		for _, list := range [][]int32{g.Out(u), g.In(u)} {
			if cap(list) != len(list) {
				t.Fatalf("node %d: list of len %d has cap %d", u, len(list), cap(list))
			}
			for i := 1; i < len(list); i++ {
				if list[i-1] >= list[i] {
					t.Fatalf("node %d: list %v not strictly ascending", u, list)
				}
			}
		}
		for _, w := range g.In(u) {
			if !g.HasEdge(int(w), u) {
				t.Fatalf("in-list of %d names %d, but edge %d->%d is absent", u, w, w, u)
			}
		}
		in += g.InDegree(u)
	}
	if in != g.M() {
		t.Fatalf("in-lists hold %d edges, want %d", in, g.M())
	}
}

func TestDegreesAndEdges(t *testing.T) {
	b := NewBuilder(3)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 0, 2)
	mustEdge(t, b, 1, 2)
	g := b.Build()
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if got := len(g.Edges()); got != 3 {
		t.Errorf("len(Edges()) = %d, want 3", got)
	}
	if g.HasEdge(2, 0) {
		t.Error("HasEdge(2,0) = true, want false")
	}
	if g.HasEdge(-1, 0) {
		t.Error("HasEdge(-1,0) = true for out-of-range node")
	}
}

func TestDensity(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want float64
	}{
		{"empty", NewBuilder(0).Build(), 0},
		{"single", NewBuilder(1).Build(), 0},
		{"path3", path(t, 3), 2.0 / 6.0},
		{"cycle4", cycle(t, 4), 4.0 / 12.0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Density(); got != tc.want {
				t.Errorf("Density() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDensityCompleteGraphIsOne(t *testing.T) {
	n := 5
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				mustEdge(t, b, u, v)
			}
		}
	}
	if got := b.Build().Density(); got != 1 {
		t.Errorf("complete graph density = %v, want 1", got)
	}
}

func TestReverse(t *testing.T) {
	g := path(t, 4)
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(3, 2) {
		t.Error("Reverse missing flipped edges")
	}
	if r.HasEdge(0, 1) {
		t.Error("Reverse kept a forward edge")
	}
	if r.M() != g.M() || r.N() != g.N() {
		t.Errorf("Reverse changed size: %d/%d vs %d/%d", r.N(), r.M(), g.N(), g.M())
	}
	if !r.Reverse().Equal(g) {
		t.Error("double Reverse is not identity")
	}
}

func TestBFSFrom(t *testing.T) {
	g := path(t, 4)
	dist := g.BFSFrom(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
	dist = g.BFSFrom(3)
	for i := 0; i < 3; i++ {
		if dist[i] != -1 {
			t.Errorf("dist[%d] from sink = %d, want -1", i, dist[i])
		}
	}
	if d := g.BFSFrom(-1); d[0] != -1 {
		t.Error("BFSFrom out-of-range source should mark all unreachable")
	}
}

func TestRelabel(t *testing.T) {
	g := path(t, 3)
	h, err := g.Relabel([]int{2, 1, 0})
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	// Node i of h corresponds to node perm[i] of g: h's node 0 is g's
	// node 2 (the sink).
	if !h.HasEdge(2, 1) || !h.HasEdge(1, 0) {
		t.Errorf("relabelled edges wrong: %v", h.Edges())
	}
	if _, err := g.Relabel([]int{0, 0, 1}); err == nil {
		t.Error("Relabel accepted a non-permutation")
	}
	if _, err := g.Relabel([]int{0, 1}); err == nil {
		t.Error("Relabel accepted wrong-length permutation")
	}
}

func TestEqual(t *testing.T) {
	g := path(t, 3)
	if !g.Equal(path(t, 3)) {
		t.Error("identical graphs reported unequal")
	}
	if g.Equal(path(t, 4)) {
		t.Error("different-order graphs reported equal")
	}
	if g.Equal(cycle(t, 3)) {
		t.Error("different-edge graphs reported equal")
	}
}

func TestRandomDirectedProperties(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw%100) / 100
		g := RandomDirected(rand.New(rand.NewSource(seed)), n, p)
		d := g.Density()
		if d < 0 || d > 1 {
			return false
		}
		for u := 0; u < n; u++ {
			if g.HasEdge(u, u) {
				return false // no self loops
			}
		}
		return g.N() == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestRandomFlowConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(60)
		g := RandomFlow(rng, n, 0.05)
		for v, d := range g.BFSFrom(0) {
			if d < 0 {
				t.Fatalf("RandomFlow node %d unreachable from entry (n=%d)", v, n)
			}
		}
	}
}

func TestRandomFlowEmpty(t *testing.T) {
	g := RandomFlow(rand.New(rand.NewSource(1)), 0, 0.5)
	if g.N() != 0 {
		t.Errorf("N() = %d, want 0", g.N())
	}
}
