package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSCCsLinearChain(t *testing.T) {
	g := path(t, 4)
	comps := g.SCCs()
	if len(comps) != 4 {
		t.Fatalf("chain SCCs = %d, want 4 singletons", len(comps))
	}
	// Reverse topological order: sinks first.
	if comps[0][0] != 3 {
		t.Errorf("first SCC = %v, want the sink", comps[0])
	}
}

func TestSCCsCycleAndTail(t *testing.T) {
	// 0->1->2->0 cycle, plus 2->3 tail.
	b := NewBuilder(4)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 1, 2)
	mustEdge(t, b, 2, 0)
	mustEdge(t, b, 2, 3)
	comps := b.Build().SCCs()
	if len(comps) != 2 {
		t.Fatalf("SCCs = %v, want 2 components", comps)
	}
	var sizes []int
	for _, c := range comps {
		sizes = append(sizes, len(c))
	}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 3 {
		t.Errorf("SCC sizes = %v, want [1 3]", sizes)
	}
}

func TestSCCsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		g := RandomDirected(rng, 3+rng.Intn(25), 0.15)
		comps := g.SCCs()
		seen := make([]int, g.N())
		for _, c := range comps {
			for _, v := range c {
				seen[v]++
			}
		}
		for v, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("node %d appears in %d SCCs", v, cnt)
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3: the join is dominated by the entry, not by
	// either branch arm.
	b := NewBuilder(4)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 0, 2)
	mustEdge(t, b, 1, 3)
	mustEdge(t, b, 2, 3)
	idom := b.Build().Dominators(0)
	want := []int{0, 0, 0, 0}
	for i := range want {
		if idom[i] != want[i] {
			t.Errorf("idom[%d] = %d, want %d", i, idom[i], want[i])
		}
	}
}

func TestDominatorsChain(t *testing.T) {
	idom := path(t, 4).Dominators(0)
	want := []int{0, 0, 1, 2}
	for i := range want {
		if idom[i] != want[i] {
			t.Errorf("idom[%d] = %d, want %d", i, idom[i], want[i])
		}
	}
}

func TestDominatorsUnreachable(t *testing.T) {
	b := NewBuilder(3)
	mustEdge(t, b, 0, 1)
	// Node 2 unreachable.
	idom := b.Build().Dominators(0)
	if idom[2] != -1 {
		t.Errorf("unreachable idom = %d, want -1", idom[2])
	}
	// Bad entry yields all -1.
	for _, d := range b.Build().Dominators(99) {
		if d != -1 {
			t.Error("bad entry should mark everything unreachable")
		}
	}
}

func TestBackEdgesLoop(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 (loop), 2 -> 3.
	b := NewBuilder(4)
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 1, 2)
	mustEdge(t, b, 2, 1)
	mustEdge(t, b, 2, 3)
	back := b.Build().BackEdges(0)
	if len(back) != 1 || back[0] != [2]int{2, 1} {
		t.Errorf("back edges = %v, want [[2 1]]", back)
	}
}

func TestBackEdgesSelfLoop(t *testing.T) {
	b := NewBuilder(2).AllowSelfLoops()
	mustEdge(t, b, 0, 1)
	mustEdge(t, b, 1, 1)
	back := b.Build().BackEdges(0)
	if len(back) != 1 || back[0] != [2]int{1, 1} {
		t.Errorf("self-loop back edges = %v", back)
	}
}

func TestBackEdgesAcyclic(t *testing.T) {
	if back := path(t, 5).BackEdges(0); len(back) != 0 {
		t.Errorf("acyclic graph has back edges: %v", back)
	}
}

// TestLoopinessSeparatesClasses: random flow graphs with more probability
// mass get more loops — sanity for using back-edge counts as a
// malware signal in the corpus generator.
func TestBackEdgesIncreaseWithDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	count := func(p float64) int {
		total := 0
		for i := 0; i < 10; i++ {
			total += len(RandomFlow(rng, 30, p).BackEdges(0))
		}
		return total
	}
	sparse, dense := count(0.005), count(0.08)
	if dense <= sparse {
		t.Errorf("back edges sparse=%d dense=%d, want dense > sparse", sparse, dense)
	}
}
