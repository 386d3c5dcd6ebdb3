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
// composition performs. One Brandes pass per source is a forward BFS that
// counts sigma (shortest paths from s) and one reverse walk over the BFS
// order. For each w, from the farthest node back, that walk
//
//   - counts d(s,w) into the path-length histogram and into w's
//     incoming-closeness sums (d(s,w) is exactly the reverse-BFS distance
//     d_rev(w,s));
//   - pushes w's dependency into its predecessors: predecessors are not
//     stored, so it walks w's in-edges and keeps the u one layer closer
//     to s;
//   - adds delta[w] to w's betweenness;
//   - resets w's scratch for the next source.
//
// Resetting w inside the walk is safe: every later read of w's dist,
// sigma or delta comes from a node earlier in the BFS order, and it
// compares dist against that node's predecessor layer, which is never -1.
//
// A source s whose only out-edge is s -> s+1, and which s+1 cannot reach
// back, shares its pass with source s+1: everything s+1 reaches, it
// reaches with the same sigma and dependencies, one layer further. One
// walk then harvests both sources. In a CFG that is a block that falls
// through into the next one outside any loop.
//
// Degree centrality falls out of the adjacency lists directly. The sweep
// therefore touches each edge O(n) times total where the naive
// composition touches it ~3·O(n) times (forward BFS for paths, reverse
// BFS for closeness, Brandes for betweenness) and also skips the reverse
// graph materialization entirely. Only the nodes a source's BFS reached
// are visited again, so a source that reaches few nodes costs little.
//
// All scratch and the Profile's result slices are owned by the Sweeper
// and reused across calls: profiling a graph no larger than one seen
// before allocates nothing. The zero value is ready to use. A Sweeper is
// NOT safe for concurrent use; pool Sweepers for parallel extraction (the
// features package does).
//
// Numerics: the sweep computes the same floating-point values in the
// same order as the naive per-centrality methods, so Profile results are
// bit-for-bit identical to them — a property the feature layer's
// regression tests assert. The in-edge walk keeps that order: each
// delta[u] still receives its contributions in reverse BFS order of w,
// once per edge, since Builder.Build removes duplicate edges. The one
// operation elided is a divide whose quotient is exactly 1: when
// sigma[u] == sigma[w] and both are finite, sigma[u]/sigma[w]*c is c, so
// the sweep adds c directly. Non-finite sigma (past 2^1024 paths) takes
// the divide, which keeps the naive method's Inf/Inf = NaN. A shared
// s/s+1 pass reuses values that source s+1's own pass would recompute
// bit for bit. Path counts and closeness sums are integers, so their
// order is free.
type Sweeper struct {
	// dist, sigma and delta are clean (-1, 0, 0) outside a source's pass.
	dist       []int32
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
		sw.dist = make([]int32, n)
		for i := range sw.dist {
			sw.dist[i] = -1
		}
		sw.sigma = make([]float64, n)
		sw.delta = make([]float64, n)
		sw.order = make([]int32, n)
	}
	sw.dist = sw.dist[:n]
	sw.sigma = sw.sigma[:n]
	sw.delta = sw.delta[:n]
	sw.order = sw.order[:n]
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
	// the reverse walk still runs for smaller graphs so the path
	// histogram and closeness match the naive methods exactly.
	doBC := n >= 3
	dist, sigma, delta, order := sw.dist[:n], sw.sigma[:n], sw.delta[:n], sw.order[:n]
	bc, paths := p.Betweenness[:n], p.PathCounts[:n]
	closeSum, closeReach := sw.closeSum[:n], sw.closeReach[:n]
	for s := 0; s < n; s++ {
		order[0] = int32(s)
		tail := 1
		dist[s] = 0
		sigma[s] = 1
		for head := 0; head < tail; head++ {
			u := order[head]
			du, su := dist[u]+1, sigma[u]
			for _, v := range g.out[u] {
				if dv := dist[v]; dv < 0 {
					// First visit: sigma[v] is 0, and 0 + sigma[u] is exact.
					dist[v] = du
					sigma[v] = su
					order[tail] = v
					tail++
				} else if dv == du {
					sigma[v] += su
				}
			}
		}
		// When s's only out-edge is s -> s+1 and no in-neighbour of s was
		// reached, s+1 cannot reach back to s, and source s+1's pass is
		// this one without s: the same BFS order after order[1] = s+1,
		// the same sigma and dependencies, one layer nearer. The walk
		// then serves both sources for the nodes from order[twinFrom]
		// on, adding each one's two equal betweenness contributions back
		// to back, in source order.
		twinFrom := tail
		if out := g.out[s]; len(out) == 1 && int(out[0]) == s+1 {
			twinFrom = 2
			for _, u := range g.in[s] {
				if dist[u] >= 0 {
					twinFrom = tail
				}
			}
		}
		// One walk in reverse BFS order; order[0] is s, which has no
		// predecessors, is excluded as an endpoint and is reset below.
		// The harvest comes before the in-edge loop so that d is not live
		// across it: the compiler then keeps that loop free of spills.
		for i := tail - 1; i > 0; i-- {
			w := order[i]
			d := dist[w]
			paths[d]++
			closeSum[w] += int(d)
			closeReach[w]++
			if i >= twinFrom {
				paths[d-1]++
				closeSum[w] += int(d - 1)
				closeReach[w]++
			}
			if doBC {
				sigW, cw, dPred := sigma[w], 1+delta[w], d-1
				for _, u := range g.in[w] {
					if dist[u] == dPred {
						// sigU/sigW is exactly 1 when the two are equal
						// and finite, and 1*cw is cw.
						if sigU := sigma[u]; sigU == sigW && sigU-sigU == 0 {
							delta[u] += cw
						} else {
							delta[u] += sigU / sigW * cw
						}
					}
				}
				bc[w] += delta[w]
				if i >= twinFrom {
					bc[w] += delta[w]
				}
			}
			dist[w], sigma[w], delta[w] = -1, 0, 0
		}
		dist[s], sigma[s], delta[s] = -1, 0, 0
		if twinFrom < tail {
			s++ // source s+1 is done
		}
	}
	if doBC {
		norm := 1 / (float64(n-1) * float64(n-2))
		for i := range bc {
			bc[i] *= norm
		}
	}
	if n >= 2 {
		for v := 0; v < n; v++ {
			if closeSum[v] > 0 {
				p.Closeness[v] = float64(closeReach[v]) / float64(closeSum[v]) *
					float64(closeReach[v]) / float64(n-1)
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
