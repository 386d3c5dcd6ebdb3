package graph

// SCCs returns the strongly connected components in reverse topological
// order (Tarjan's algorithm, iterative). Every node appears in exactly
// one component. CFG loops show up as multi-node (or self-loop) SCCs.
func (g *Graph) SCCs() [][]int {
	n := g.N()
	var (
		index   = make([]int, n)
		lowlink = make([]int, n)
		onStack = make([]bool, n)
		stack   = make([]int, 0, n)
		comps   [][]int
		counter = 1 // 0 means unvisited
	)
	type frame struct {
		v, next int
	}
	for start := 0; start < n; start++ {
		if index[start] != 0 {
			continue
		}
		frames := []frame{{v: start}}
		index[start] = counter
		lowlink[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.next < len(g.out[v]) {
				w := int(g.out[v][f.next])
				f.next++
				switch {
				case index[w] == 0:
					index[w] = counter
					lowlink[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				case onStack[w]:
					if index[w] < lowlink[v] {
						lowlink[v] = index[w]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// Dominators computes the immediate dominator of every node for flow
// graphs rooted at entry, using the iterative Cooper–Harvey–Kennedy
// algorithm. idom[entry] == entry; unreachable nodes get -1. Dominator
// trees are the standard CFG analysis for loop detection and code
// structure recovery.
func (g *Graph) Dominators(entry int) []int {
	n := g.N()
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if entry < 0 || entry >= n {
		return idom
	}
	// Reverse postorder from entry.
	order := g.postorder(entry)
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, v := range order {
		// order is postorder; reverse numbering.
		rpoNum[v] = len(order) - 1 - i
	}
	idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		// Process in reverse postorder (skip entry).
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if v == entry {
				continue
			}
			newIdom := -1
			for _, p := range g.in[v] {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = int(p)
				} else {
					newIdom = intersect(int(p), newIdom)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// postorder returns the DFS postorder of nodes reachable from entry.
func (g *Graph) postorder(entry int) []int {
	n := g.N()
	seen := make([]bool, n)
	order := make([]int, 0, n)
	type frame struct {
		v, next int
	}
	frames := []frame{{v: entry}}
	seen[entry] = true
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.next < len(g.out[f.v]) {
			w := int(g.out[f.v][f.next])
			f.next++
			if !seen[w] {
				seen[w] = true
				frames = append(frames, frame{v: w})
			}
			continue
		}
		order = append(order, f.v)
		frames = frames[:len(frames)-1]
	}
	return order
}

// BackEdges returns the edges u->v where v dominates u — the natural
// loop back edges of a flow graph rooted at entry.
func (g *Graph) BackEdges(entry int) [][2]int {
	idom := g.Dominators(entry)
	dominates := func(a, b int) bool {
		// Does a dominate b? Walk b's dominator chain.
		if idom[b] < 0 {
			return false
		}
		for {
			if b == a {
				return true
			}
			if b == idom[b] {
				return false
			}
			b = idom[b]
		}
	}
	var back [][2]int
	for u := 0; u < g.N(); u++ {
		if idom[u] < 0 {
			continue
		}
		for _, v := range g.out[u] {
			if dominates(int(v), u) {
				back = append(back, [2]int{u, int(v)})
			}
		}
	}
	return back
}
