package index

import (
	"fmt"
	"math"

	"advmal/internal/cpu"
)

// The exact flat scan behind Corpus.Search: every corpus row's squared
// distance to the query, computed the way sqDist computes it — per row, in
// ascending dimension, one separately rounded subtract, multiply and add
// per term — so every distance is bit-identical to sqDist's and the hits
// are Exact's. Rows are stored dimension-major in blocks of scanLanes
// rows, so one vector load brings one dimension of several rows and a
// vector lane carries one row's own chain. scanBlocks runs on AVX
// assembly where the CPU has it (scan_amd64.s) and on the portable twin
// scanBlocksGo elsewhere.
//
// The scan abandons a block early when it cannot matter: every term is
// non-negative and rounding is monotone, so a partial sum never exceeds
// the full one, and once all of a block's partial sums exceed the current
// selection bound none of its rows can enter. Abandoned partial sums are
// only ever compared against the bound, never reported; an infinite
// bound abandons nothing.

// useAVX selects the assembly scan (always false off amd64); the tests
// turn it off to pin the portable twin on amd64 too.
var useAVX = cpu.AVX

const (
	// scanLanes is the rows per block: four 4-wide AVX registers.
	scanLanes = 16
	// scanCheck is how many dimensions a block accumulates between two
	// tests against the bound.
	scanCheck = 4
	// scanChunk is the rows one scanBlocks call covers, at one bound.
	scanChunk = 4 * scanLanes
)

// flat is the exact flat scan over a store's vectors as they were when it
// was built.
type flat struct {
	n, dim int
	// cols holds row b*scanLanes+j's dimension d at
	// (b*dim+d)*scanLanes+j; the last block is padded with zero rows.
	cols  []float64
	store Store // labels
}

func newFlat(store Store) *flat {
	n, dim := store.Len(), store.Dim()
	blocks := (n + scanLanes - 1) / scanLanes
	f := &flat{n: n, dim: dim, cols: make([]float64, blocks*scanLanes*dim), store: store}
	for id := 0; id < n; id++ {
		b, j := id/scanLanes, id%scanLanes
		for d, x := range store.Vec(id) {
			f.cols[(b*dim+d)*scanLanes+j] = x
		}
	}
	return f
}

// Len implements Searcher.
func (f *flat) Len() int { return f.n }

func (f *flat) check(q []float64) error {
	if f == nil || f.n == 0 {
		return ErrEmpty
	}
	if len(q) != f.dim {
		return fmt.Errorf("%w: got %d want %d", ErrDimMismatch, len(q), f.dim)
	}
	return nil
}

// dists fills buf with the squared distances from q to the rows from
// base, a multiple of scanChunk, and returns the part that holds rows.
// A row whose distance exceeds bound may get a partial sum that exceeds
// it too.
func (f *flat) dists(buf *[scanChunk]float64, q []float64, base int, bound float64) []float64 {
	m := min(scanChunk, f.n-base)
	lanes := (m + scanLanes - 1) / scanLanes * scanLanes
	scanBlocks(buf[:lanes], q, f.cols[base*f.dim:(base+lanes)*f.dim], bound)
	return buf[:m]
}

// nearest returns the nearest row, ties to the lower id, without
// allocating: Search(q, 1)'s answer.
func (f *flat) nearest(q []float64) (Hit, error) {
	if err := f.check(q); err != nil {
		return Hit{}, err
	}
	var buf [scanChunk]float64
	best, bestD := 0, math.Inf(1)
	for base := 0; base < f.n; base += scanChunk {
		for j, d := range f.dists(&buf, q, base, bestD) {
			// The lower id keeps a tie; id 0 always enters, so a NaN
			// distance is answered as Exact answers it.
			if id := base + j; id == 0 || d < bestD {
				best, bestD = id, d
			}
		}
	}
	return Hit{ID: best, Label: f.store.Label(best), Dist: math.Sqrt(bestD)}, nil
}

// Search implements Searcher with Exact's selection: the k smallest
// distances in a bounded max-heap, then sorted by distance and id.
func (f *flat) Search(q []float64, k int) ([]Hit, error) {
	if err := f.check(q); err != nil {
		return nil, err
	}
	k = min(max(k, 1), f.n)
	worst := make(exactHeap, 0, k)
	var buf [scanChunk]float64
	for base := 0; base < f.n; base += scanChunk {
		bound := math.Inf(1)
		if len(worst) == k {
			bound = worst[0].dist
		}
		for j, d := range f.dists(&buf, q, base, bound) {
			if len(worst) == k {
				// A later row never wins a tie, so only a strictly smaller
				// distance enters.
				if !(d < worst[0].dist) {
					continue
				}
				worst.pop()
			}
			worst.push(exactItem{dist: d, id: int32(base + j)})
		}
	}
	return worst.hits(f.store), nil
}

// scanBlocksGo is the portable twin of the assembly, abandoning at the
// same points: dst[b*scanLanes+j] is block b's row j's squared distance to
// q, for the len(dst)/scanLanes blocks of cols, or — when after some
// multiple of scanCheck dimensions, with more to go, all of the block's
// partial sums are > bound — that partial sum. Four rows at a time keep
// four chains in registers.
func scanBlocksGo(dst, q, cols []float64, bound float64) {
	dim := len(q)
	for b := 0; b < len(dst)/scanLanes; b++ {
		block := cols[b*dim*scanLanes : (b+1)*dim*scanLanes]
		acc := dst[b*scanLanes : (b+1)*scanLanes : (b+1)*scanLanes]
		clear(acc)
		for d0 := 0; d0 < dim; d0 += scanCheck {
			d1 := min(d0+scanCheck, dim)
			for j := 0; j < scanLanes; j += 4 {
				s0, s1, s2, s3 := acc[j], acc[j+1], acc[j+2], acc[j+3]
				for d := d0; d < d1; d++ {
					x, r := q[d], block[d*scanLanes+j:d*scanLanes+j+4:d*scanLanes+j+4]
					t0, t1, t2, t3 := x-r[0], x-r[1], x-r[2], x-r[3]
					// The conversions forbid a fused multiply-add.
					s0 += float64(t0 * t0)
					s1 += float64(t1 * t1)
					s2 += float64(t2 * t2)
					s3 += float64(t3 * t3)
				}
				acc[j], acc[j+1], acc[j+2], acc[j+3] = s0, s1, s2, s3
			}
			if d1 < dim && allAbove(acc, bound) {
				break
			}
		}
	}
}

func allAbove(xs []float64, bound float64) bool {
	for _, x := range xs {
		if !(x > bound) {
			return false
		}
	}
	return true
}
