package graph

// Profile bundles everything the feature layer summarizes about a graph:
// the three per-node centrality distributions and the histogram of finite
// pairwise shortest-path lengths. A Profile produced by a Sweeper aliases
// the Sweeper's scratch memory and is valid only until the next call on
// that Sweeper; callers that need the data longer must copy it.
type Profile struct {
	// Betweenness is normalized shortest-path betweenness centrality,
	// identical to Graph.BetweennessCentrality.
	Betweenness []float64
	// Closeness is incoming-distance Wasserman–Faust closeness,
	// identical to Graph.ClosenessCentrality.
	Closeness []float64
	// Degree is normalized (in+out)/(n-1) degree centrality, identical
	// to Graph.DegreeCentrality.
	Degree []float64
	// PathCounts has length n; PathCounts[d] is the number of ordered
	// pairs (u,v), u != v, at shortest-path distance d. It is the
	// histogram of Graph.ShortestPathLengths (PathCounts[0] is 0).
	PathCounts []int
}

// Sweeper computes a graph's full feature Profile in a single fused
// all-sources sweep instead of the four independent traversals the naive
// composition performs. One Brandes pass per source yields
//
//   - the per-source BFS distances, harvested once over the BFS order for
//     both the path-length histogram (one count per reached v != s) and
//     the incoming-closeness accumulators of every reached node (d(s,v)
//     is exactly the reverse-BFS distance d_rev(v,s)), and
//   - the sigma counts whose reverse-order dependency accumulation
//     produces betweenness. Predecessors are not stored: the reverse pass
//     walks w's in-edges and keeps the u one layer closer to s.
//
// Degree centrality falls out of the adjacency lists directly. The sweep
// therefore touches each edge O(n) times total where the naive
// composition touches it ~3·O(n) times (forward BFS for paths, reverse
// BFS for closeness, Brandes for betweenness) and also skips the reverse
// graph materialization entirely. After each source only the nodes its
// BFS reached are reset, so a source that reaches few nodes costs little.
//
// All scratch and the Profile's result slices are owned by the Sweeper
// and reused across calls: profiling a graph no larger than one seen
// before allocates nothing. The zero value is ready to use. A Sweeper is
// NOT safe for concurrent use; pool Sweepers for parallel extraction (the
// features package does).
//
// Numerics: every floating-point operation is performed in the same
// order and with the same expressions as the naive per-centrality
// methods, so Profile results are bit-for-bit identical to them — a
// property the feature layer's regression tests assert. The in-edge walk
// keeps that order: each delta[u] still receives its contributions in
// reverse BFS order of w, once per edge, since the Builder removes
// duplicate edges.
type Sweeper struct {
	// dist, sigma and delta are clean (-1, 0, 0) outside a source's pass.
	dist       []int
	sigma      []float64
	delta      []float64
	order      []int32
	closeSum   []int
	closeReach []int
	res        Profile
}

// NewSweeper returns an empty Sweeper; scratch grows on first use.
func NewSweeper() *Sweeper { return &Sweeper{} }

// resizeZeroed returns s with length n and every element zeroed, reusing
// capacity when possible.
func resizeZeroed[T float64 | int](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (sw *Sweeper) grow(n int) {
	if cap(sw.dist) < n {
		sw.dist = make([]int, n)
		for i := range sw.dist {
			sw.dist[i] = -1
		}
		sw.sigma = make([]float64, n)
		sw.delta = make([]float64, n)
		sw.order = make([]int32, 0, n)
	}
	sw.dist = sw.dist[:n]
	sw.sigma = sw.sigma[:n]
	sw.delta = sw.delta[:n]
	sw.closeSum = resizeZeroed(sw.closeSum, n)
	sw.closeReach = resizeZeroed(sw.closeReach, n)
	sw.res.Betweenness = resizeZeroed(sw.res.Betweenness, n)
	sw.res.Closeness = resizeZeroed(sw.res.Closeness, n)
	sw.res.Degree = resizeZeroed(sw.res.Degree, n)
	sw.res.PathCounts = resizeZeroed(sw.res.PathCounts, n)
}

// Profile computes g's feature profile in one fused sweep. The returned
// Profile aliases the Sweeper's scratch and is valid until the next
// Profile call on sw.
func (sw *Sweeper) Profile(g *Graph) *Profile {
	n := g.N()
	sw.grow(n)
	p := &sw.res

	if n >= 2 {
		norm := 1 / float64(n-1)
		for u := 0; u < n; u++ {
			p.Degree[u] = float64(g.InDegree(u)+g.OutDegree(u)) * norm
		}
	}

	// Betweenness is only defined (and only normalizable) for n >= 3;
	// the distance harvest below still runs for smaller graphs so the
	// path histogram and closeness match the naive methods exactly.
	doBC := n >= 3
	dist, sigma, delta := sw.dist, sw.sigma, sw.delta
	order := sw.order
	for s := 0; s < n; s++ {
		order = append(order[:0], int32(s))
		dist[s] = 0
		sigma[s] = 1
		for head := 0; head < len(order); head++ {
			u := order[head]
			du := dist[u] + 1
			for _, v := range g.out[u] {
				if dv := dist[v]; dv < 0 {
					// First visit: sigma[v] is 0, and 0 + sigma[u] is exact.
					dist[v] = du
					sigma[v] = sigma[u]
					order = append(order, v)
				} else if dv == du {
					sigma[v] += sigma[u]
				}
			}
		}
		if doBC {
			// Dependency accumulation in reverse BFS order; order[0] is s,
			// which has no predecessors and is excluded as an endpoint.
			for i := len(order) - 1; i > 0; i-- {
				w := order[i]
				dPred := dist[w] - 1
				for _, u := range g.in[w] {
					if dist[u] == dPred {
						delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
					}
				}
				p.Betweenness[w] += delta[w]
			}
		}
		// Harvest the distances once for two feature groups, d(s,v)
		// counting into the path histogram and accumulating into v's
		// incoming-closeness sums (integers, so the visiting order does
		// not matter), and leave the reached nodes clean for the next
		// source.
		for _, v := range order[1:] {
			d := dist[v]
			p.PathCounts[d]++
			sw.closeSum[v] += d
			sw.closeReach[v]++
			dist[v] = -1
			sigma[v] = 0
			delta[v] = 0
		}
		dist[s], sigma[s], delta[s] = -1, 0, 0
	}
	sw.order = order
	if doBC {
		norm := 1 / (float64(n-1) * float64(n-2))
		for i := range p.Betweenness {
			p.Betweenness[i] *= norm
		}
	}
	if n >= 2 {
		for v := 0; v < n; v++ {
			if sw.closeSum[v] > 0 {
				p.Closeness[v] = float64(sw.closeReach[v]) / float64(sw.closeSum[v]) *
					float64(sw.closeReach[v]) / float64(n-1)
			}
		}
	}
	return p
}

// Profile computes the graph's feature profile with a throwaway Sweeper.
// Convenience for one-off callers; hot paths should reuse a Sweeper (or
// go through the features package's pooled extractor).
func (g *Graph) Profile() *Profile {
	return NewSweeper().Profile(g)
}
