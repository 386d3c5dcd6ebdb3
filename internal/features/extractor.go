package features

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"advmal/internal/graph"
	"advmal/internal/ir"
	"advmal/internal/lru"
)

// slabs pools extraction scratch across goroutines, one slab per
// concurrent extraction: Extract and Extractor.ExtractText borrow a slab
// for one sweep and summary, so parallel corpus builds and concurrent
// cache misses reuse a small set of arenas instead of allocating per call.
var slabs = sync.Pool{New: func() any { return new(slab) }}

// slab is one extraction worker's scratch: the fused-sweep Sweeper and
// the buffer its three per-node distributions are sorted in.
type slab struct {
	sw     graph.Sweeper
	sorted []float64
}

// extract writes g's Table II vector into v on a pooled slab.
func extract(g *graph.Graph, v *[NumFeatures]float64) {
	s := slabs.Get().(*slab)
	defer slabs.Put(s)
	p := s.sw.Profile(g)
	for i, values := range [3][]float64{p.Betweenness, p.Closeness, p.Degree} {
		s.sorted = append(s.sorted[:0], values...)
		sort.Float64s(s.sorted)
		stats := summarySorted(s.sorted)
		copy(v[5*i:], stats[:])
	}
	stats := summaryCounts(p.PathCounts)
	copy(v[15:], stats[:])
	v[20], v[21], v[22] = g.Density(), float64(g.M()), float64(g.N())
}

// DefaultCacheCapacity bounds each level of the shared extractor's
// cache: at most 4096 vectors under GraphKey and 4096 programs under
// their text hash, each entry a 32-byte key and its 23 float64s inline
// (≈ 1.5 MiB of heap per full level).
const DefaultCacheCapacity = 4096

// GraphKey returns the content hash an Extractor caches under: SHA-256
// over the node count and the sorted out-adjacency lists. Builder sorts
// adjacency at Build time, so two graphs with equal node and edge sets
// (graph.Equal) hash identically regardless of edge insertion order,
// and any added, removed, or rerouted edge changes the key.
func GraphKey(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	n := g.N()
	writeU64(uint64(n))
	for u := 0; u < n; u++ {
		out := g.Out(u)
		writeU64(uint64(len(out)))
		for _, v := range out {
			writeU64(uint64(uint32(v)))
		}
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// Extractor computes Table II feature vectors through the fused sweep
// engine with a bounded, concurrency-safe, two-level cache in front.
//
// The graph level memoizes vectors under GraphKey, so hash-equal graphs
// — the same CFG re-disassembled, a GEA minimize probe repeating a
// candidate, a textual re-encoding of one program — are extracted once.
// The text level, in front of it, memoizes ExtractText's whole result
// under the SHA-256 of the program text, so a repeated text skips
// ir.Parse, ir.Disassemble and GraphKey as well. Raw feature vectors are
// a pure function of graph content, so sharing one Extractor across
// detectors, pipelines, and goroutines is always sound.
//
// Every lookup counts exactly once: a hit at either level is one hit, a
// miss at both is one miss. Eviction is least-recently-used, per level.
// The zero-capacity constructor value selects DefaultCacheCapacity. A nil
// *Extractor is valid and delegates to the process-wide Shared extractor,
// which lets struct fields be optional at every call site.
type Extractor struct {
	text         *lru.Cache[[sha256.Size]byte, Extraction]
	graph        *lru.Cache[[sha256.Size]byte, [NumFeatures]float64]
	hits, misses atomic.Uint64
}

// Extraction is one program's extraction: its raw (unscaled) feature
// vector and the block and edge counts of its CFG.
type Extraction struct {
	Vec           [NumFeatures]float64
	Blocks, Edges int
}

// Shared is the process-wide extractor used when a call site has no
// explicit one wired in (nil *Extractor receivers delegate here).
var Shared = NewExtractor(DefaultCacheCapacity)

// NewExtractor returns an Extractor whose cache levels hold up to
// capacity entries each; capacity <= 0 selects DefaultCacheCapacity.
func NewExtractor(capacity int) *Extractor {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Extractor{
		text:  lru.New[[sha256.Size]byte, Extraction](capacity),
		graph: lru.New[[sha256.Size]byte, [NumFeatures]float64](capacity),
	}
}

// Extract returns the 23-feature vector of g, serving hash-equal graphs
// from the cache. The returned vector is always a private copy; callers
// may mutate it freely.
func (e *Extractor) Extract(g *graph.Graph) Vector {
	if e == nil {
		return Shared.Extract(g)
	}
	v := e.vector(g)
	return append(Vector(nil), v[:]...)
}

// vector is the graph level: g's features under GraphKey.
func (e *Extractor) vector(g *graph.Graph) [NumFeatures]float64 {
	key := GraphKey(g)
	if v, ok := e.graph.Get(key); ok {
		e.hits.Add(1)
		return v
	}
	e.misses.Add(1)
	// Compute outside the lock; a concurrent miss on the same key does
	// redundant work but stays correct (extraction is deterministic).
	var v [NumFeatures]float64
	extract(g, &v)
	e.graph.Add(key, v)
	return v
}

// ExtractText parses untrusted program text, recovers its CFG and
// extracts its features, with the text level in front: a text seen
// before is answered from its SHA-256 alone. A parse failure wraps
// ir.ErrParse; it and a disassembly failure are returned uncounted and
// never cached, so a bad program is rejected every time it arrives.
func (e *Extractor) ExtractText(text []byte) (Extraction, error) {
	if e == nil {
		return Shared.ExtractText(text)
	}
	key := sha256.Sum256(text)
	if x, ok := e.text.Get(key); ok {
		e.hits.Add(1)
		return x, nil
	}
	prog, err := ir.Parse(string(text))
	if err != nil {
		return Extraction{}, err
	}
	cfg, err := ir.Disassemble(prog)
	if err != nil {
		return Extraction{}, err
	}
	g := cfg.G()
	x := Extraction{Vec: e.vector(g), Blocks: g.N(), Edges: g.M()}
	e.text.Add(key, x)
	return x, nil
}

// CacheStats is a point-in-time snapshot of an Extractor's cache.
type CacheStats struct {
	Hits, Misses uint64
	// Len counts the graph level's vectors, Texts the text level's
	// programs; Cap bounds each.
	Len, Texts, Cap int
}

// Stats returns the extractor's cache counters.
func (e *Extractor) Stats() CacheStats {
	if e == nil {
		return Shared.Stats()
	}
	return CacheStats{
		Hits: e.hits.Load(), Misses: e.misses.Load(),
		Len: e.graph.Len(), Texts: e.text.Len(), Cap: e.graph.Cap(),
	}
}

// Reset empties both levels and zeroes the counters.
func (e *Extractor) Reset() {
	if e == nil {
		Shared.Reset()
		return
	}
	e.text.Reset()
	e.graph.Reset()
	e.hits.Store(0)
	e.misses.Store(0)
}
