package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"advmal/internal/synth"
)

// eachScan runs f on every scan implementation this platform has: the
// assembly (where the CPU runs it) and the portable twin, with the
// assembly forced off for the rest of the test.
func eachScan(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if useAVX {
		t.Run("avx", f)
	}
	saved := useAVX
	useAVX = false
	t.Cleanup(func() { useAVX = saved })
	t.Run("portable", f)
}

// scanValue draws the awkward values: signed zeros, denormals, the
// smallest normal, huge finite magnitudes whose differences and squares
// overflow to +Inf, and ordinary ones.
func scanValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324 * float64(1+rng.Intn(1000))
	case 3:
		return -math.SmallestNonzeroFloat64
	case 4:
		return 2.2250738585072014e-308
	case 5:
		return 1e200 * (rng.Float64() - 0.5)
	case 6:
		return math.MaxFloat64 * (2*rng.Float64() - 1)
	default:
		return rng.NormFloat64()
	}
}

// TestScanKernelBitIdentical compares scanBlocks against sqDist, the
// scalar oracle, by math.Float64bits on every lane. Query, rows and
// output sit between NaN guard bands: a read outside its operand would
// turn a distance into NaN, and a write outside dst would show in a band.
// With an infinite bound every lane is exact; with a finite one a lane is
// exact or a partial sum of its own chain that exceeds the bound.
func TestScanKernelBitIdentical(t *testing.T) {
	eachScan(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		const guard = 40
		for _, n := range []int{1, 15, 16, 17, 2557} {
			for dim := 1; dim <= 64; dim++ {
				if n == 2557 && dim%7 != 2 { // 23 and a spread of others
					continue
				}
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = make([]float64, dim)
					for d := range rows[i] {
						rows[i][d] = scanValue(rng)
					}
				}
				f := newFlat(&MemStore{Vectors: rows, Labels: make([]string, n)})
				lanes := len(f.cols) / dim
				cols := guarded(f.cols, guard)
				q := make([]float64, dim)
				for d := range q {
					q[d] = scanValue(rng)
				}
				qg := guarded(q, guard)
				median := sqDist(q, rows[n/2])
				for _, bound := range []float64{math.Inf(1), median, 0} {
					out := guarded(make([]float64, lanes), guard)
					scanBlocks(out[guard:guard+lanes], qg[guard:guard+dim], cols[guard:guard+len(f.cols)], bound)
					for i := range out {
						if (i < guard || i >= guard+lanes) && !math.IsNaN(out[i]) {
							t.Fatalf("n=%d dim=%d: write outside dst at %d", n, dim, i-guard)
						}
					}
					for id, row := range rows {
						got, want := out[guard+id], sqDist(q, row)
						exact := math.Float64bits(got) == math.Float64bits(want)
						if !exact && (math.IsInf(bound, 1) || !(got > bound && got <= want)) {
							t.Fatalf("n=%d dim=%d bound %v row %d: scan %v (%#x), sqDist %v (%#x)",
								n, dim, bound, id, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// guarded returns a copy of xs with guard NaNs on either side.
func guarded(xs []float64, guard int) []float64 {
	out := make([]float64, len(xs)+2*guard)
	for i := range out {
		out[i] = math.NaN()
	}
	copy(out[guard:], xs)
	return out
}

// TestScanMatchesPortable runs both implementations over the same random
// blocks and bounds and compares every lane bit for bit, abandoned
// partial sums included.
func TestScanMatchesPortable(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: only the portable scan runs here")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		dim, blocks := 1+rng.Intn(64), 1+rng.Intn(20)
		cols := make([]float64, blocks*scanLanes*dim)
		for i := range cols {
			cols[i] = scanValue(rng)
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = scanValue(rng)
		}
		bound := []float64{math.Inf(1), math.NaN(), 0, scanValue(rng), math.Abs(rng.NormFloat64()) * float64(dim)}[trial%5]
		avx, portable := make([]float64, blocks*scanLanes), make([]float64, blocks*scanLanes)
		scanBlocks(avx, q, cols, bound)
		scanBlocksGo(portable, q, cols, bound)
		for i := range avx {
			if math.Float64bits(avx[i]) != math.Float64bits(portable[i]) {
				t.Fatalf("dim=%d blocks=%d bound %v lane %d: avx %v, portable %v", dim, blocks, bound, i, avx[i], portable[i])
			}
		}
	}
}

// corpusWithTies is a clustered corpus in which every tenth vector
// repeats an earlier one, so equal distances — to the query and among
// members — are common.
func corpusWithTies(t *testing.T, seed int64, n int) *Corpus {
	t.Helper()
	vecs, labels := corpus(seed, n, 23)
	for i := 10; i < n; i += 10 {
		vecs[i] = append([]float64(nil), vecs[i/3]...)
	}
	if n < 2 { // too small to calibrate: a corpus with its scan only
		h := NewHNSW(HNSWConfig{Seed: seed}, &MemStore{Labels: labels, Vectors: vecs})
		return &Corpus{HNSW: h, flat: newFlat(h.Store())}
	}
	c, err := BuildCorpus(HNSWConfig{Seed: seed}, vecs, labels, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCorpusSearchMatchesExact pins the corpus's answer to the oracle's:
// same ids in the same order, ties to the lower id, bit-identical
// distances, for k from 1 past the corpus size; and Nearest is Search's
// first hit.
func TestCorpusSearchMatchesExact(t *testing.T) {
	eachScan(t, func(t *testing.T) {
		for _, n := range []int{1, 17, 600} {
			c := corpusWithTies(t, int64(n), n)
			ex := NewExact(c.HNSW.Store())
			rng := rand.New(rand.NewSource(int64(n) + 1))
			queries, _ := synth.LabeledVectors(rng, 30, 23)
			for i := 0; i < n && i < 30; i++ {
				queries = append(queries, c.HNSW.Store().Vec(i)) // distance-0 ties
			}
			for _, q := range queries {
				for _, k := range []int{1, 5, 100, n + 3} {
					want, err := ex.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("n=%d k=%d: %d hits, want %d", n, k, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || got[i].Label != want[i].Label ||
							math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("n=%d k=%d hit %d: %+v, exact %+v", n, k, i, got[i], want[i])
						}
					}
				}
				h, err := c.Nearest(q)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ex.Search(q, 1)
				if h != want[0] {
					t.Fatalf("n=%d: Nearest %+v, exact %+v", n, h, want[0])
				}
			}
		}
	})
}

// TestCorpusSearchErrors pins the shared error contract on the scan.
func TestCorpusSearchErrors(t *testing.T) {
	c := corpusWithTies(t, 2, 40)
	if _, err := c.Search(make([]float64, 3), 1); err == nil {
		t.Error("short query accepted by Search")
	}
	if _, err := c.Nearest(make([]float64, 24)); err == nil {
		t.Error("long query accepted by Nearest")
	}
	var empty Corpus
	if _, err := empty.Nearest(make([]float64, 23)); err == nil {
		t.Error("corpus without vectors answered")
	}
}

// TestCalibrateTriageExact pins the calibration to exact distances: the
// threshold is the quantile of every member's self-excluded nearest
// neighbour distance as the oracle computes it — and a reloaded corpus
// keeps the stored threshold rather than recalibrating.
func TestCalibrateTriageExact(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		c := corpusWithTies(t, seed, 800)
		store := c.HNSW.Store()
		nn := make([]float64, store.Len())
		for i := range nn {
			nn[i] = math.Inf(1)
			for j := 0; j < store.Len(); j++ {
				if j != i {
					nn[i] = math.Min(nn[i], math.Sqrt(sqDist(store.Vec(i), store.Vec(j))))
				}
			}
		}
		sort.Float64s(nn)
		want := Triage{Threshold: nn[int(0.99*float64(len(nn)))-1], Quantile: 0.99}
		if c.Triage != want {
			t.Fatalf("seed %d: calibrated %+v, exact quantile %+v", seed, c.Triage, want)
		}

		c.Triage.Threshold = 0.123 // as if calibrated otherwise when saved
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Triage.Threshold != 0.123 {
			t.Fatalf("reload recalibrated the stored threshold: %+v", loaded.Triage)
		}
	}
}

// TestNearestAllocFree pins the triage lookup at zero allocations: the
// scan's scratch stays on the stack.
func TestNearestAllocFree(t *testing.T) {
	eachScan(t, func(t *testing.T) {
		c := corpusWithTies(t, 4, 700)
		q := c.HNSW.Store().Vec(123)
		if a := testing.AllocsPerRun(50, func() {
			if _, err := c.Nearest(q); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("Nearest: %v allocs/op, want 0", a)
		}
	})
}

// BenchmarkNearest times one nearest-neighbour query — the triage lookup
// — on HNSW, the Exact oracle and the flat scan (assembly and portable)
// over clustered 23-dim corpora of the paper's size (2,557 training
// vectors) and larger. The scan is O(n) like Exact and HNSW is ~O(log n),
// so the rows say up to which n the scan wins.
func BenchmarkNearest(b *testing.B) {
	for _, n := range []int{2557, 10000, 100000} {
		vecs, labels := corpus(1, n, 23)
		h := NewHNSW(HNSWConfig{Seed: 1}, nil)
		for i, v := range vecs {
			if _, err := h.Add(labels[i], v); err != nil {
				b.Fatal(err)
			}
		}
		ex, fl := NewExact(h.Store()), newFlat(h.Store())
		queries, _ := synth.LabeledVectors(rand.New(rand.NewSource(2)), 256, 23)
		run := func(name string, search func(q []float64) error) {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := search(queries[i%len(queries)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("hnsw", func(q []float64) error { _, err := h.Search(q, 1); return err })
		run("exact", func(q []float64) error { _, err := ex.Search(q, 1); return err })
		saved := useAVX
		for _, avx := range []bool{true, false} {
			if avx && !saved {
				continue
			}
			name := "scan-portable"
			if avx {
				name = "scan-avx"
			}
			useAVX = avx
			run(name, func(q []float64) error { _, err := fl.nearest(q); return err })
		}
		useAVX = saved
	}
}
