// Package graph provides the directed-graph substrate used to represent
// control flow graphs (CFGs) and to compute the graph-algorithmic features
// the paper's detector is trained on: degree, closeness and betweenness
// centralities, shortest-path statistics, and density.
//
// Graphs are immutable once built. Nodes are dense integers in [0, N);
// construction goes through a Builder so that adjacency is validated and
// deduplicated exactly once. All algorithms are deterministic.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Common construction errors.
var (
	// ErrNodeRange indicates an edge endpoint outside [0, N).
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrSelfLoop indicates a rejected self loop.
	ErrSelfLoop = errors.New("graph: self loop not allowed")
)

// Graph is an immutable simple directed graph. The zero value is an empty
// graph with no nodes.
type Graph struct {
	out  [][]int32
	in   [][]int32
	m    int
	name string
}

// Builder accumulates edges for a Graph. The zero value is unusable; create
// one with NewBuilder.
type Builder struct {
	n     int
	edges map[int64]struct{}
	order []int64
	loops bool
}

// NewBuilder returns a Builder for a graph with n nodes (n >= 0).
func NewBuilder(n int) *Builder {
	return &Builder{
		n:     n,
		edges: make(map[int64]struct{}),
	}
}

// AllowSelfLoops makes the builder accept u->u edges. CFGs contain self
// loops for single-block loops, so the disassembler enables this.
func (b *Builder) AllowSelfLoops() *Builder {
	b.loops = true
	return b
}

// AddEdge records the directed edge u->v. Duplicate edges are ignored.
// It returns an error if either endpoint is out of range, or if u == v and
// self loops are disallowed.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	if u == v && !b.loops {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	key := int64(u)<<32 | int64(int32(v))&0xffffffff
	if _, dup := b.edges[key]; dup {
		return nil
	}
	b.edges[key] = struct{}{}
	b.order = append(b.order, key)
	return nil
}

// Build finalizes the graph. The Builder may not be reused afterwards.
// Every node's out-list (and in-list) is a window of one shared array,
// capped at its own length so no list can grow into its neighbour's.
func (b *Builder) Build() *Graph {
	g := &Graph{
		out: make([][]int32, b.n),
		in:  make([][]int32, b.n),
		m:   len(b.order),
	}
	// Sort for determinism independent of insertion order.
	slices.Sort(b.order)
	deg := make([]int32, 2*b.n) // out-degrees, then in-degrees
	for _, key := range b.order {
		deg[key>>32]++
		deg[b.n+int(int32(key))]++
	}
	outs := make([]int32, len(b.order))
	ins := make([]int32, len(b.order))
	var outAt, inAt int32
	for u := range b.n {
		od, id := deg[u], deg[b.n+u]
		g.out[u] = outs[outAt : outAt : outAt+od]
		g.in[u] = ins[inAt : inAt : inAt+id]
		outAt += od
		inAt += id
	}
	for _, key := range b.order {
		u := int32(key >> 32)
		v := int32(key)
		g.out[u] = append(g.out[u], v)
		g.in[v] = append(g.in[v], u)
	}
	b.edges = nil
	b.order = nil
	return g
}

// N returns the number of nodes (the order of the graph).
func (g *Graph) N() int { return len(g.out) }

// M returns the number of edges (the size of the graph).
func (g *Graph) M() int { return g.m }

// Out returns the out-neighbors of u. The returned slice must not be
// modified.
func (g *Graph) Out(u int) []int32 { return g.out[u] }

// In returns the in-neighbors of u. The returned slice must not be modified.
func (g *Graph) In(u int) []int32 { return g.in[u] }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u int) int { return len(g.in[u]) }

// HasEdge reports whether the edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() {
		return false
	}
	for _, w := range g.out[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Edges returns all edges in deterministic (sorted) order.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u := range g.out {
		for _, v := range g.out[u] {
			es = append(es, [2]int{u, int(v)})
		}
	}
	return es
}

// Density returns |E| / (|V| * (|V|-1)) for a simple directed graph, the
// definition used in the paper (§II-B). Graphs with fewer than two nodes
// have density 0.
func (g *Graph) Density() float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	return float64(g.m) / float64(n*(n-1))
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	r := &Graph{
		out: make([][]int32, g.N()),
		in:  make([][]int32, g.N()),
		m:   g.m,
	}
	for u := range g.out {
		r.out[u] = append([]int32(nil), g.in[u]...)
		r.in[u] = append([]int32(nil), g.out[u]...)
	}
	return r
}

// Relabel returns a new graph where node i of the result corresponds to node
// perm[i] of g. perm must be a permutation of [0, N). Used by tests to check
// that feature extraction is invariant to node order.
func (g *Graph) Relabel(perm []int) (*Graph, error) {
	n := g.N()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != n %d", len(perm), n)
	}
	inv := make([]int, n)
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation entry %d", p)
		}
		seen[p] = true
		inv[p] = i
	}
	b := NewBuilder(n).AllowSelfLoops()
	for u := range g.out {
		for _, v := range g.out[u] {
			if err := b.AddEdge(inv[u], inv[int(v)]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// BFSFrom returns the vector of unweighted shortest-path distances from src
// following out-edges; unreachable nodes get -1.
func (g *Graph) BFSFrom(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.out[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.out {
		if len(g.out[u]) != len(h.out[u]) {
			return false
		}
		for i, v := range g.out[u] {
			if h.out[u][i] != v {
				return false
			}
		}
	}
	return true
}
