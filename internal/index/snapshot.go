package index

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// DefaultDupEps is the near-duplicate distance: scaled feature vectors
// closer than this to a corpus member are treated as re-submissions of
// a known sample. Min-max scaled features of distinct CFGs differ by
// far more than this; only true content duplicates land under it.
const DefaultDupEps = 1e-9

// Corpus is the serving artefact cmd/serve loads at startup: the labeled,
// scaled training corpus with an HNSW index over it, the calibrated
// triage threshold, and the near-duplicate radius. Build one with
// BuildCorpus, persist with Save, restore with Load.
//
// Search and Nearest answer exactly, by a flat scan over a copy of the
// vectors the corpus was built or loaded with; at the paper's corpus size
// the scan is faster than the HNSW graph, which stays for larger corpora
// and for the snapshot format. Vectors added to HNSW afterwards are not
// searched.
type Corpus struct {
	HNSW   *HNSW
	Triage Triage
	// DupEps is the near-duplicate distance (<= 0 selects DefaultDupEps
	// at build/load time).
	DupEps float64

	flat *flat
}

// BuildCorpus indexes the labeled vectors, calibrates the triage
// threshold at quantile (<= 0 selects the 0.99 default) on exact
// nearest-neighbour distances, and returns the bundle. vecs[i] carries
// labels[i]; insertion order is id order.
func BuildCorpus(cfg HNSWConfig, vecs [][]float64, labels []string, quantile float64) (*Corpus, error) {
	if len(vecs) != len(labels) {
		return nil, fmt.Errorf("index: build corpus: %d vectors but %d labels", len(vecs), len(labels))
	}
	h := NewHNSW(cfg, nil)
	for i, v := range vecs {
		if _, err := h.Add(labels[i], v); err != nil {
			return nil, fmt.Errorf("index: build corpus: vector %d: %w", i, err)
		}
	}
	fl := newFlat(h.Store())
	tri, err := CalibrateTriage(fl, h.Store(), quantile)
	if err != nil {
		return nil, err
	}
	return &Corpus{HNSW: h, Triage: tri, DupEps: DefaultDupEps, flat: fl}, nil
}

// Search returns the k corpus entries nearest to q, closest first, ties
// to the lower id: Exact's answer over the same vectors, at bit-identical
// distances.
func (c *Corpus) Search(q []float64, k int) ([]Hit, error) { return c.flat.Search(q, k) }

// Nearest is Search(q, 1)'s one hit, without allocating: the triage
// lookup behind every verdict.
func (c *Corpus) Nearest(q []float64) (Hit, error) { return c.flat.nearest(q) }

// snapshotVersion guards the on-disk layout.
const snapshotVersion = 1

// corpusSnapshot is the gob wire form: the full graph structure plus
// the store's content, so a round trip restores search results
// bit-for-bit (the identity property test pins this).
type corpusSnapshot struct {
	Version        int
	M              int
	EfConstruction int
	EfSearch       int
	Seed           int64
	Draws          int64
	Entry          int32
	MaxLevel       int32
	Levels         []int32
	Links          [][][]int32
	Labels         []string
	Vectors        [][]float64
	Threshold      float64
	Quantile       float64
	DupEps         float64
}

// Save writes the corpus as a gob snapshot.
func (c *Corpus) Save(w io.Writer) error {
	if c.HNSW == nil {
		return fmt.Errorf("index: save: nil index")
	}
	h := c.HNSW
	h.mu.RLock()
	defer h.mu.RUnlock()
	snap := corpusSnapshot{
		Version:        snapshotVersion,
		M:              h.cfg.M,
		EfConstruction: h.cfg.EfConstruction,
		EfSearch:       h.cfg.EfSearch,
		Seed:           h.cfg.Seed,
		Draws:          h.draws,
		Entry:          h.entry,
		MaxLevel:       h.maxLevel,
		Levels:         h.levels,
		Links:          h.links,
		Threshold:      c.Triage.Threshold,
		Quantile:       c.Triage.Quantile,
		DupEps:         c.DupEps,
	}
	n := h.store.Len()
	snap.Labels = make([]string, n)
	snap.Vectors = make([][]float64, n)
	for id := 0; id < n; id++ {
		snap.Labels[id] = h.store.Label(id)
		snap.Vectors[id] = h.store.Vec(id)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("index: save snapshot: %w", err)
	}
	return nil
}

// Load restores a corpus written by Save. Hardened like
// core.LoadModel: a corrupt or truncated snapshot comes back as a
// descriptive error, never a panic or a partially wired index, and the
// restored index continues deterministic inserts (the level RNG is
// replayed to its snapshot position).
func Load(r io.Reader) (c *Corpus, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			c, err = nil, fmt.Errorf("%w: %v", ErrCorrupt, rec)
		}
	}()
	var snap corpusSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: load snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d", ErrCorrupt, snap.Version, snapshotVersion)
	}
	n := len(snap.Vectors)
	if len(snap.Labels) != n || len(snap.Levels) != n || len(snap.Links) != n {
		return nil, fmt.Errorf("%w: inconsistent snapshot (%d vectors, %d labels, %d levels, %d link sets)",
			ErrCorrupt, n, len(snap.Labels), len(snap.Levels), len(snap.Links))
	}
	if n > 0 && (snap.Entry < 0 || int(snap.Entry) >= n) {
		return nil, fmt.Errorf("%w: entry point %d out of range [0,%d)", ErrCorrupt, snap.Entry, n)
	}
	dim := 0
	if n > 0 {
		dim = len(snap.Vectors[0])
	}
	for id := 0; id < n; id++ {
		if len(snap.Vectors[id]) != dim {
			return nil, fmt.Errorf("%w: vector %d has dim %d, want %d", ErrCorrupt, id, len(snap.Vectors[id]), dim)
		}
		for _, x := range snap.Vectors[id] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("%w: vector %d is not finite", ErrCorrupt, id)
			}
		}
		if int(snap.Levels[id]) != len(snap.Links[id])-1 {
			return nil, fmt.Errorf("%w: node %d level %d but %d link layers",
				ErrCorrupt, id, snap.Levels[id], len(snap.Links[id]))
		}
		for _, layer := range snap.Links[id] {
			for _, nb := range layer {
				if nb < 0 || int(nb) >= n {
					return nil, fmt.Errorf("%w: node %d links to out-of-range %d", ErrCorrupt, id, nb)
				}
			}
		}
	}
	h := NewHNSW(HNSWConfig{
		M:              snap.M,
		EfConstruction: snap.EfConstruction,
		EfSearch:       snap.EfSearch,
		Seed:           snap.Seed,
	}, &MemStore{Labels: snap.Labels, Vectors: snap.Vectors})
	h.levels = snap.Levels
	h.links = snap.Links
	h.entry = snap.Entry
	h.maxLevel = snap.MaxLevel
	// Replay the level RNG to its snapshot position so an index restored
	// from disk assigns the same layers to subsequent inserts as the
	// index that was saved.
	h.rng = rand.New(rand.NewSource(snap.Seed))
	for i := int64(0); i < snap.Draws; i++ {
		h.rng.Float64()
	}
	h.draws = snap.Draws
	dupEps := snap.DupEps
	if dupEps <= 0 {
		dupEps = DefaultDupEps
	}
	return &Corpus{
		HNSW:   h,
		Triage: Triage{Threshold: snap.Threshold, Quantile: snap.Quantile},
		DupEps: dupEps,
		flat:   newFlat(h.Store()),
	}, nil
}
