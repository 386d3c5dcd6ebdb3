// Package index provides the similarity layer of the detection system:
// approximate nearest-neighbor search over the scaled 23-dimensional
// Table II feature vectors, used for family attribution ("which family
// is this closest to?"), near-duplicate dedup of incoming samples, and
// adversarial triage — GEA splices (paper §V) move feature vectors off
// the training manifold, so a large distance to the nearest labeled
// neighbor is itself a detection signal.
//
// Three search engines share one storage layer: HNSW, the hierarchical
// small-world graph index for corpora far larger than the paper's; Exact,
// the brute-force scan kept as the oracle HNSW's recall and the flat
// scan's exactness are pinned against; and the flat scan behind
// Corpus.Search, a vectorised exact scan that is the fastest of the three
// at the paper's corpus size. Corpus bundles the vectors and the HNSW
// index with the calibrated triage threshold into the gob-persisted
// artefact cmd/serve loads at startup.
package index

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Errors shared by the package.
var (
	// ErrDimMismatch indicates a vector whose length differs from the
	// index's dimension.
	ErrDimMismatch = errors.New("index: vector dimension mismatch")
	// ErrEmpty indicates a search over an index with no entries.
	ErrEmpty = errors.New("index: empty index")
	// ErrCorrupt indicates a snapshot that fails validation at load.
	ErrCorrupt = errors.New("index: corrupt snapshot")
)

// Hit is one nearest-neighbor result.
type Hit struct {
	// ID is the entry's storage id (insertion order).
	ID int `json:"id"`
	// Label is the entry's family label.
	Label string `json:"label"`
	// Dist is the Euclidean distance from the query.
	Dist float64 `json:"dist"`
}

// Searcher is the k-NN query contract shared by Exact, HNSW and the
// flat scan. Implementations are safe for concurrent Search; HNSW
// additionally allows Search concurrent with Add.
type Searcher interface {
	// Search returns the k entries nearest to q, closest first. Fewer
	// than k are returned when the index holds fewer entries.
	Search(q []float64, k int) ([]Hit, error)
	// Len returns the number of indexed entries.
	Len() int
}

// Store is the pluggable vector storage layer under an index: an
// id-addressed, append-only collection of labeled vectors. MemStore is
// the in-memory implementation; the gob snapshot layer persists a
// Store's content alongside the index structure built over it.
type Store interface {
	// Append adds a labeled vector and returns its id. The vector is
	// copied; callers may reuse the slice.
	Append(label string, vec []float64) int
	// Vec returns the stored vector for id (not a copy — read only).
	Vec(id int) []float64
	// Label returns the stored label for id.
	Label(id int) string
	// Len returns the number of stored vectors.
	Len() int
	// Dim returns the vector dimension (0 while empty).
	Dim() int
}

// MemStore is the in-memory Store: flat parallel slices, ids are
// insertion order. Not internally synchronized — the owning index
// serializes access.
type MemStore struct {
	Labels  []string
	Vectors [][]float64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (m *MemStore) Append(label string, vec []float64) int {
	m.Labels = append(m.Labels, label)
	m.Vectors = append(m.Vectors, append([]float64(nil), vec...))
	return len(m.Vectors) - 1
}

// Vec implements Store.
func (m *MemStore) Vec(id int) []float64 { return m.Vectors[id] }

// Label implements Store.
func (m *MemStore) Label(id int) string { return m.Labels[id] }

// Len implements Store.
func (m *MemStore) Len() int { return len(m.Vectors) }

// Dim implements Store.
func (m *MemStore) Dim() int {
	if len(m.Vectors) == 0 {
		return 0
	}
	return len(m.Vectors[0])
}

// sqDist returns the squared Euclidean distance between equal-length
// vectors. Comparisons happen in squared space; only reported Hit
// distances pay the square root. The flat scan reproduces it bit for bit:
// terms in ascending dimension, each multiply and add rounded on its own.
func sqDist(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += float64(d * d) // the conversion forbids a fused multiply-add
	}
	return s
}

// Exact is the brute-force oracle: Search scans every stored vector.
// O(n·dim) per query — correct by construction, and the baseline the
// bench suite and HNSW's recall property are measured against.
type Exact struct {
	store Store
}

// NewExact returns an exact-scan index over store (nil selects a fresh
// MemStore).
func NewExact(store Store) *Exact {
	if store == nil {
		store = NewMemStore()
	}
	return &Exact{store: store}
}

// Add appends a labeled vector.
func (e *Exact) Add(label string, vec []float64) (int, error) {
	if d := e.store.Dim(); d != 0 && len(vec) != d {
		return 0, fmt.Errorf("%w: got %d want %d", ErrDimMismatch, len(vec), d)
	}
	return e.store.Append(label, vec), nil
}

// Len implements Searcher.
func (e *Exact) Len() int { return e.store.Len() }

// Store returns the underlying storage layer.
func (e *Exact) Store() Store { return e.store }

// Search implements Searcher by scanning the whole store, keeping the
// k best in a bounded max-heap — O(n·dim + n·log k) per query with O(k)
// working memory, so the oracle stays usable as a baseline at 1M
// entries instead of materializing and sorting the full distance list.
func (e *Exact) Search(q []float64, k int) ([]Hit, error) {
	n := e.store.Len()
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(q) != e.store.Dim() {
		return nil, fmt.Errorf("%w: got %d want %d", ErrDimMismatch, len(q), e.store.Dim())
	}
	if k <= 0 {
		k = 1
	}
	var worst exactHeap // max-heap: root is the current k-th best
	for id := 0; id < n; id++ {
		d := sqDist(q, e.store.Vec(id))
		if len(worst) < k {
			worst.push(exactItem{dist: d, id: int32(id)})
			continue
		}
		top := worst[0]
		if d < top.dist || (d == top.dist && int32(id) < top.id) {
			worst.pop()
			worst.push(exactItem{dist: d, id: int32(id)})
		}
	}
	return worst.hits(e.store), nil
}

// exactItem and exactHeap are the oracle's own float64 max-heap — kept
// separate from the HNSW beam heaps (which trade down to float32 for
// memory bandwidth) so the reference answer never inherits hot-path
// precision choices.
type exactItem struct {
	dist float64
	id   int32
}

type exactHeap []exactItem

func (h *exactHeap) push(it exactItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(s[i].dist > s[p].dist || (s[i].dist == s[p].dist && s[i].id > s[p].id)) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// hits returns the heap's items as hits, closest first, ties to the
// lower id.
func (h exactHeap) hits(store Store) []Hit {
	sort.Slice(h, func(i, j int) bool {
		if h[i].dist != h[j].dist {
			return h[i].dist < h[j].dist
		}
		return h[i].id < h[j].id
	})
	hits := make([]Hit, len(h))
	for i, it := range h {
		hits[i] = Hit{ID: int(it.id), Label: store.Label(int(it.id)), Dist: math.Sqrt(it.dist)}
	}
	return hits
}

func (h *exactHeap) pop() exactItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < last && (s[l].dist > s[next].dist || (s[l].dist == s[next].dist && s[l].id > s[next].id)) {
			next = l
		}
		if r < last && (s[r].dist > s[next].dist || (s[r].dist == s[next].dist && s[r].id > s[next].id)) {
			next = r
		}
		if next == i {
			break
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
	return top
}

// Attribution summarizes a hit list into a family verdict: the majority
// label among the hits (ties broken toward the nearer hit) and its vote
// count.
func Attribution(hits []Hit) (family string, votes int) {
	counts := make(map[string]int, len(hits))
	for _, h := range hits {
		counts[h.Label]++
	}
	for _, h := range hits { // iterate hits (nearest first) so ties go to the nearer label
		if c := counts[h.Label]; c > votes {
			family, votes = h.Label, c
		}
	}
	return family, votes
}
