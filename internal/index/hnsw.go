package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// HNSWConfig tunes the hierarchical small-world index. Zero values
// select the defaults noted on each field, chosen for the 23-dim
// Table II feature space.
type HNSWConfig struct {
	// M is the link budget per node on upper layers (layer 0 allows
	// 2M). Default 16.
	M int
	// EfConstruction is the candidate-beam width during insertion:
	// wider builds a better graph, slower. Default 200.
	EfConstruction int
	// EfSearch is the default candidate-beam width during queries
	// (raised to k when k is larger). Default 128 — sized so recall@10
	// against the exact oracle stays ≥ 0.95 on clustered family
	// corpora, the hard case for graph indexes (the property test pins
	// this).
	EfSearch int
	// Seed drives level assignment. Builds are deterministic for a
	// given seed and insertion sequence.
	Seed int64
}

func (c *HNSWConfig) defaults() {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 128
	}
}

// HNSW is the approximate nearest-neighbor index: a hierarchy of
// navigable small-world graphs over the storage layer. Add serializes
// writers; Search takes a read lock, so concurrent searches proceed in
// parallel and interleave safely with inserts (the race test pins
// this). Determinism: for a fixed config and insertion sequence the
// built graph — and therefore every search result — is reproducible,
// including across a snapshot round trip.
type HNSW struct {
	mu    sync.RWMutex
	cfg   HNSWConfig
	store Store

	levels   []int32     // levels[id] = top layer of node id
	links    [][][]int32 // links[id][layer] = neighbor ids
	entry    int32
	maxLevel int32

	rng      *rand.Rand
	draws    int64 // level draws so far, replayed at snapshot load
	levelMul float64

	// flat aliases the MemStore's vector slice when the store is a
	// *MemStore (the common case), letting the distance hot loop skip
	// the interface dispatch on Store.Vec.
	flat *[][]float64

	// vecs32 is a contiguous float32 shadow of the stored vectors
	// (stride = dim), the working representation of the search hot
	// loop: half the memory traffic of the float64 originals and no
	// per-vector pointer chase, which is what an ANN search over a
	// corpus bigger than cache is actually bound by. Beam ordering and
	// neighbor selection run on float32 distances (deterministically —
	// same arithmetic every run); reported Hit distances are recomputed
	// in float64 from the store for the final k results only.
	vecs32 []float32
	dim    int

	scratch sync.Pool
}

// NewHNSW returns an empty index over store (nil selects a fresh
// MemStore).
func NewHNSW(cfg HNSWConfig, store Store) *HNSW {
	cfg.defaults()
	if store == nil {
		store = NewMemStore()
	}
	h := &HNSW{
		cfg:      cfg,
		store:    store,
		entry:    -1,
		maxLevel: -1,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		levelMul: 1 / math.Log(float64(cfg.M)),
	}
	if ms, ok := store.(*MemStore); ok {
		h.flat = &ms.Vectors
	}
	// A pre-populated store (the snapshot Load path) arrives with vectors
	// the shadow must mirror before any search runs.
	for id, n := 0, store.Len(); id < n; id++ {
		h.append32(store.Vec(id))
	}
	h.scratch.New = func() any { return &searchScratch{} }
	return h
}

// vec returns the stored float64 vector for id via the devirtualized
// fast path when available.
func (h *HNSW) vec(id int32) []float64 {
	if h.flat != nil {
		return (*h.flat)[id]
	}
	return h.store.Vec(int(id))
}

// vec32 returns id's slot in the contiguous float32 shadow.
func (h *HNSW) vec32(id int32) []float32 {
	off := int(id) * h.dim
	return h.vecs32[off : off+h.dim]
}

// append32 grows the float32 shadow with vec's converted copy.
func (h *HNSW) append32(vec []float64) {
	if h.dim == 0 {
		h.dim = len(vec)
	}
	for _, x := range vec {
		h.vecs32 = append(h.vecs32, float32(x))
	}
}

// sqDist32 is the hot-loop squared distance over the float32 shadow.
func sqDist32(a, b []float32) float32 {
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// sqDistBound32 is sqDist32 with early abandonment: once the partial
// sum exceeds bound the exact value no longer matters (the caller only
// asks "is it closer than bound?"), so it returns the partial
// immediately. In dense clusters most beam candidates lose to the
// current worst result within a few dimensions. Abandoned partials are
// only ever compared against bound, never stored.
func sqDistBound32(a, b []float32, bound float32) float32 {
	var s float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		d4 := a[i+4] - b[i+4]
		d5 := a[i+5] - b[i+5]
		d6 := a[i+6] - b[i+6]
		d7 := a[i+7] - b[i+7]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6 + d7*d7
		if s > bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Config returns the index's resolved configuration.
func (h *HNSW) Config() HNSWConfig { return h.cfg }

// Store returns the underlying storage layer.
func (h *HNSW) Store() Store { return h.store }

// Len implements Searcher.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.store.Len()
}

// maxLayer caps level assignment; with mL = 1/ln(M) the probability of
// exceeding it is negligible for any corpus that fits in memory.
const maxLayer = 30

// drawLevel assigns a geometric layer to the next node.
func (h *HNSW) drawLevel() int32 {
	h.draws++
	l := int32(math.Floor(-math.Log(1-h.rng.Float64()) * h.levelMul))
	if l > maxLayer {
		l = maxLayer
	}
	return l
}

// Add inserts a labeled vector and returns its id.
func (h *HNSW) Add(label string, vec []float64) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d := h.store.Dim(); d != 0 && len(vec) != d {
		return 0, fmt.Errorf("%w: got %d want %d", ErrDimMismatch, len(vec), d)
	}
	id := int32(h.store.Append(label, vec))
	h.append32(h.store.Vec(int(id)))
	v := h.vec32(id)
	level := h.drawLevel()
	h.levels = append(h.levels, level)
	nodeLinks := make([][]int32, level+1)
	h.links = append(h.links, nodeLinks)

	if h.entry < 0 {
		h.entry, h.maxLevel = id, level
		return int(id), nil
	}

	sc := h.scratch.Get().(*searchScratch)
	defer h.scratch.Put(sc)

	ep := h.entry
	for l := h.maxLevel; l > level; l-- {
		ep = h.closest(v, ep, l)
	}
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(v, ep, h.cfg.EfConstruction, l, sc)
		sel := h.selectNeighbors(v, cands, h.cfg.M, sc.sel[:0])
		sc.sel = sel
		nodeLinks[l] = append([]int32(nil), sel...)
		maxM := h.cfg.M
		if l == 0 {
			maxM = 2 * h.cfg.M
		}
		for _, nb := range sel {
			h.links[nb][l] = append(h.links[nb][l], id)
			if len(h.links[nb][l]) > maxM {
				h.pruneLinks(nb, l, maxM, sc)
			}
		}
		if len(cands) > 0 {
			ep = cands[0].id
		}
	}
	if level > h.maxLevel {
		h.maxLevel, h.entry = level, id
	}
	return int(id), nil
}

// Search implements Searcher.
func (h *HNSW) Search(q []float64, k int) ([]Hit, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.store.Len() == 0 {
		return nil, ErrEmpty
	}
	if len(q) != h.store.Dim() {
		return nil, fmt.Errorf("%w: got %d want %d", ErrDimMismatch, len(q), h.store.Dim())
	}
	if k <= 0 {
		k = 1
	}
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	sc := h.scratch.Get().(*searchScratch)
	defer h.scratch.Put(sc)

	q32 := sc.q32[:0]
	for _, x := range q {
		q32 = append(q32, float32(x))
	}
	sc.q32 = q32

	ep := h.entry
	for l := h.maxLevel; l > 0; l-- {
		ep = h.closest(q32, ep, l)
	}
	cands := h.searchLayer(q32, ep, ef, 0, sc)
	if k < len(cands) {
		cands = cands[:k]
	}
	// The beam ran on the float32 shadow; report exact float64 distances
	// for the selected k, re-sorted in case a float32 near-tie inverted.
	hits := make([]Hit, len(cands))
	for i, c := range cands {
		id := int(c.id)
		hits[i] = Hit{ID: id, Label: h.store.Label(id), Dist: math.Sqrt(sqDist(q, h.vec(c.id)))}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		return hits[i].ID < hits[j].ID
	})
	return hits, nil
}

// closest greedily descends one layer: repeatedly hop to the neighbor
// nearest to q until no neighbor improves.
func (h *HNSW) closest(q []float32, ep int32, layer int32) int32 {
	best := ep
	bestD := sqDist32(q, h.vec32(ep))
	for improved := true; improved; {
		improved = false
		for _, nb := range h.links[best][layer] {
			if d := sqDistBound32(q, h.vec32(nb), bestD); d < bestD {
				best, bestD, improved = nb, d, true
			}
		}
	}
	return best
}

// searchLayer is the beam search of one layer: expand the closest
// unexpanded candidate until the beam's worst result is closer than the
// best remaining candidate. Returns up to ef items sorted ascending by
// distance (ties by id, keeping results deterministic).
func (h *HNSW) searchLayer(q []float32, ep int32, ef int, layer int32, sc *searchScratch) []heapItem {
	sc.reset(len(h.levels))
	sc.visit(ep)
	d := sqDist32(q, h.vec32(ep))
	sc.cand.push(heapItem{dist: d, id: ep}, false)
	sc.res.push(heapItem{dist: d, id: ep}, true)

	for len(sc.cand.items) > 0 {
		c := sc.cand.pop(false)
		if len(sc.res.items) >= ef && c.dist > sc.res.items[0].dist {
			break
		}
		full := len(sc.res.items) >= ef
		bound := float32(math.Inf(1))
		if full {
			bound = sc.res.items[0].dist
		}
		for _, nb := range h.links[c.id][layer] {
			if sc.visited[nb] == sc.gen {
				continue
			}
			sc.visit(nb)
			// Once the beam is full, a candidate only matters if it
			// beats the current worst result — sqDistBound32 abandons
			// the accumulation the moment that becomes impossible.
			// Rejected partials are discarded, never stored, so beam
			// contents carry true float32 distances.
			d := sqDistBound32(q, h.vec32(nb), bound)
			if !full || d < bound {
				sc.cand.push(heapItem{dist: d, id: nb}, false)
				sc.res.push(heapItem{dist: d, id: nb}, true)
				if len(sc.res.items) > ef {
					sc.res.pop(true)
				}
				if full = len(sc.res.items) >= ef; full {
					bound = sc.res.items[0].dist
				}
			}
		}
	}
	// Drain the max-heap back to front: out comes back ascending by
	// distance (ties by id, matching the heap's comparator) without a
	// separate sort.
	out := sc.out[:0]
	if cap(out) < len(sc.res.items) {
		out = make([]heapItem, 0, len(sc.res.items)+ef)
	}
	out = out[:len(sc.res.items)]
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = sc.res.pop(true)
	}
	sc.out = out
	sc.cand.items = sc.cand.items[:0]
	return out
}

// selectNeighbors applies the HNSW diversity heuristic to candidates
// sorted ascending by distance to q: a candidate is kept only if it is
// closer to q than to every already-kept neighbor, so links spread
// across directions instead of bunching inside one cluster. Slots left
// over are filled with the nearest pruned candidates (keep-pruned
// variant), preserving connectivity on clustered corpora.
func (h *HNSW) selectNeighbors(q []float32, cands []heapItem, m int, sel []int32) []int32 {
	if len(cands) <= m {
		for _, c := range cands {
			sel = append(sel, c.id)
		}
		return sel
	}
	pruned := make([]int32, 0, len(cands))
	for _, c := range cands {
		if len(sel) >= m {
			break
		}
		cv := h.vec32(c.id)
		keep := true
		for _, s := range sel {
			if sqDistBound32(cv, h.vec32(s), c.dist) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, c.id)
		} else {
			pruned = append(pruned, c.id)
		}
	}
	for _, id := range pruned {
		if len(sel) >= m {
			break
		}
		sel = append(sel, id)
	}
	return sel
}

// pruneLinks re-selects node nb's layer-l links down to maxM using the
// same diversity heuristic, relative to nb's own vector.
func (h *HNSW) pruneLinks(nb int32, l int32, maxM int, sc *searchScratch) {
	v := h.vec32(nb)
	cands := sc.prune[:0]
	for _, id := range h.links[nb][l] {
		cands = append(cands, heapItem{dist: sqDist32(v, h.vec32(id)), id: id})
	}
	sc.prune = cands
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	h.links[nb][l] = h.selectNeighbors(v, cands, maxM, h.links[nb][l][:0])
}

// heapItem is one (distance, id) pair on a search heap. Distances are
// float32 — the beams order candidates over the float32 shadow; exact
// float64 distances are recomputed only for reported hits.
type heapItem struct {
	dist float32
	id   int32
}

// distHeap is a slice-backed binary heap over heapItems; max selects
// farthest-first (result beam) vs closest-first (candidate queue)
// ordering per call. Ties order by id so every traversal is
// deterministic.
type distHeap struct {
	items []heapItem
}

func (h *distHeap) before(a, b heapItem, max bool) bool {
	if a.dist != b.dist {
		if max {
			return a.dist > b.dist
		}
		return a.dist < b.dist
	}
	if max {
		return a.id > b.id
	}
	return a.id < b.id
}

func (h *distHeap) push(it heapItem, max bool) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p], max) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *distHeap) pop(max bool) heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < last && h.before(h.items[l], h.items[next], max) {
			next = l
		}
		if r < last && h.before(h.items[r], h.items[next], max) {
			next = r
		}
		if next == i {
			break
		}
		h.items[i], h.items[next] = h.items[next], h.items[i]
		i = next
	}
	return top
}

// searchScratch is the pooled per-operation working set: the two beams,
// a generation-stamped visited array (cleared in O(1) per search by
// bumping the generation), and reusable selection buffers.
type searchScratch struct {
	visited []uint32
	gen     uint32
	cand    distHeap
	res     distHeap
	out     []heapItem
	prune   []heapItem
	sel     []int32
	q32     []float32
}

func (sc *searchScratch) reset(n int) {
	if len(sc.visited) < n {
		grown := make([]uint32, n+n/2+8)
		copy(grown, sc.visited)
		sc.visited = grown
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: stamp everything stale
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.gen = 1
	}
	sc.cand.items = sc.cand.items[:0]
	sc.res.items = sc.res.items[:0]
}

func (sc *searchScratch) visit(id int32) { sc.visited[id] = sc.gen }
