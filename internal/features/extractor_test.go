package features

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"advmal/internal/graph"
)

func vectorsBitEqual(a, b Vector) bool {
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

// TestExtractFusedMatchesNaive is the tentpole property test: the fused
// single-sweep Extract must equal the seed four-traversal composition
// bit-for-bit on randomized graphs of both generator families, including
// degenerate sizes.
func TestExtractFusedMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = graph.RandomDirected(rng, rng.Intn(40), rng.Float64()*0.5)
		case 1:
			g = graph.RandomFlow(rng, 1+rng.Intn(40), rng.Float64()*0.3)
		default:
			g = graph.RandomFlow(rng, 1+rng.Intn(3), rng.Float64()) // degenerate
		}
		return vectorsBitEqual(Extract(g), ExtractNaive(g))
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
}

// TestExtractorMatchesNaive covers the cached path end to end: cold
// (miss) and warm (hit) extractions both equal the naive oracle.
func TestExtractorMatchesNaive(t *testing.T) {
	e := NewExtractor(8)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		g := graph.RandomFlow(rng, 5+rng.Intn(30), 0.2)
		want := ExtractNaive(g)
		if !vectorsBitEqual(e.Extract(g), want) {
			t.Fatalf("cold extract %d != naive", i)
		}
		if !vectorsBitEqual(e.Extract(g), want) {
			t.Fatalf("warm extract %d != naive", i)
		}
	}
}

// TestExtractorCacheHitOnEqualGraphs: hash-equal graphs — including one
// rebuilt with a different edge insertion order — must hit; a mutated
// graph must miss.
func TestExtractorCacheHitOnEqualGraphs(t *testing.T) {
	e := NewExtractor(16)
	b := graph.NewBuilder(5)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 3}}
	for _, ed := range edges {
		if err := b.AddEdge(ed[0], ed[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()

	v1 := e.Extract(g)
	if s := e.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first extract: %+v, want 0 hits / 1 miss", s)
	}
	v2 := e.Extract(g)
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after second extract: %+v, want 1 hit / 1 miss", s)
	}
	if !vectorsBitEqual(v1, v2) {
		t.Fatal("cache hit returned a different vector")
	}

	// Same edge set, reversed insertion order: Builder sorts adjacency,
	// so the content key is identical and this must hit.
	b = graph.NewBuilder(5)
	for i := len(edges) - 1; i >= 0; i-- {
		if err := b.AddEdge(edges[i][0], edges[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Extract(b.Build())
	if s := e.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("reordered rebuild: %+v, want 2 hits / 1 miss", s)
	}

	// One extra edge: different content, must miss.
	b = graph.NewBuilder(5)
	for _, ed := range append(append([][2]int{}, edges...), [2]int{4, 0}) {
		if err := b.AddEdge(ed[0], ed[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Extract(b.Build())
	if s := e.Stats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("mutated graph: %+v, want 2 hits / 2 misses", s)
	}
}

// TestExtractorCacheBounded: the cache never exceeds its capacity and
// evicts least-recently-used first.
func TestExtractorCacheBounded(t *testing.T) {
	const capacity = 4
	e := NewExtractor(capacity)
	rng := rand.New(rand.NewSource(5))
	graphs := make([]*graph.Graph, 10)
	for i := range graphs {
		graphs[i] = graph.RandomFlow(rng, 4+i, 0.3)
		e.Extract(graphs[i])
		if s := e.Stats(); s.Len > capacity {
			t.Fatalf("cache grew to %d entries, cap %d", s.Len, capacity)
		}
	}
	// The last `capacity` graphs are resident; the first is long evicted.
	base := e.Stats()
	e.Extract(graphs[len(graphs)-1])
	if s := e.Stats(); s.Hits != base.Hits+1 {
		t.Error("most-recent graph should still be cached")
	}
	e.Extract(graphs[0])
	if s := e.Stats(); s.Misses != base.Misses+1 {
		t.Error("oldest graph should have been evicted (LRU)")
	}
}

// TestExtractorCacheMutationSafe: mutating a returned vector must not
// poison the cached copy.
func TestExtractorCacheMutationSafe(t *testing.T) {
	e := NewExtractor(4)
	g := graph.RandomFlow(rand.New(rand.NewSource(2)), 12, 0.2)
	want := ExtractNaive(g)
	v := e.Extract(g)
	for i := range v {
		v[i] = -1
	}
	if !vectorsBitEqual(e.Extract(g), want) {
		t.Fatal("caller mutation leaked into the cache")
	}
}

// TestExtractorNilDelegatesToShared: a nil *Extractor (unwired call
// site) must serve through the process-wide shared extractor.
func TestExtractorNilDelegatesToShared(t *testing.T) {
	g := graph.RandomFlow(rand.New(rand.NewSource(9)), 10, 0.25)
	var e *Extractor
	if !vectorsBitEqual(e.Extract(g), ExtractNaive(g)) {
		t.Fatal("nil extractor result != naive")
	}
}

// TestExtractorConcurrent hammers one extractor from many goroutines
// (run under -race by `make check`) and checks every result against the
// oracle.
func TestExtractorConcurrent(t *testing.T) {
	e := NewExtractor(8)
	rng := rand.New(rand.NewSource(13))
	graphs := make([]*graph.Graph, 6)
	oracle := make([]Vector, len(graphs))
	for i := range graphs {
		graphs[i] = graph.RandomFlow(rng, 8+3*i, 0.25)
		oracle[i] = ExtractNaive(graphs[i])
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := (w + i) % len(graphs)
				if !vectorsBitEqual(e.Extract(graphs[j]), oracle[j]) {
					errc <- errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

var errMismatch = errors.New("concurrent extract mismatch")

// TestExtractorConcurrentChurn is the serving-concurrency regression: a
// cache far smaller than the working set under concurrent mixed hit/miss
// traffic, so lookups, inserts, and evictions interleave constantly
// (run under -race by `make check`). Pins three
// invariants: every returned vector matches ground truth bit for bit
// even when its entry is evicted mid-flight (returned vectors are
// private copies, so a reader can also scribble on them freely), the
// hit/miss counters account for exactly every lookup, and the cache
// never exceeds its capacity.
func TestExtractorConcurrentChurn(t *testing.T) {
	const (
		capacity   = 4
		workingSet = 16 // 4x capacity: most lookups evict something
		goroutines = 8
		iters      = 300
	)
	e := NewExtractor(capacity)
	rng := rand.New(rand.NewSource(17))
	graphs := make([]*graph.Graph, workingSet)
	oracle := make([]Vector, workingSet)
	for i := range graphs {
		graphs[i] = graph.RandomFlow(rng, 6+2*i, 0.25)
		oracle[i] = ExtractNaive(graphs[i])
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-goroutine skew: low indices are hot (hits), high ones
			// cold (misses + evictions), so the mix exercises both paths.
			for i := 0; i < iters; i++ {
				var j int
				if i%3 == 0 {
					j = (w*7 + i) % workingSet // cold sweep
				} else {
					j = i % capacity // hot set
				}
				v := e.Extract(graphs[j])
				if !vectorsBitEqual(v, oracle[j]) {
					errc <- errMismatch
					return
				}
				// Returned vectors are private copies: mutating one must
				// never corrupt what other goroutines read.
				for k := range v {
					v[k] = -1
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if got, want := st.Hits+st.Misses, uint64(goroutines*iters); got != want {
		t.Fatalf("counters leak: hits %d + misses %d = %d, want %d lookups",
			st.Hits, st.Misses, got, want)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("churn did not mix hits and misses: %+v", st)
	}
	if st.Len > capacity {
		t.Fatalf("cache exceeded capacity: %d > %d", st.Len, capacity)
	}
	// The cache must still be coherent after the churn: every entry it
	// serves now matches ground truth.
	for i, g := range graphs {
		if !vectorsBitEqual(e.Extract(g), oracle[i]) {
			t.Fatalf("post-churn corruption for graph %d", i)
		}
	}
}
