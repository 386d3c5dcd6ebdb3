package features_test

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/graph"
	"advmal/internal/ir"
	"advmal/internal/synth"
)

// tiers are the cold traffic's three CFG-size classes, by recovered node
// count: the companion study's minimum, median and maximum splice targets
// as the benchmark serves them.
var tiers = [3]struct {
	name   string
	lo, hi int
}{{"s", 48, 80}, {"m", 160, 224}, {"l", 320, 448}}

// corpus is the Table I corpus, generated once per test binary.
var corpus = sync.OnceValues(func() ([]*synth.Sample, error) {
	return synth.Generate(synth.DefaultConfig())
})

func tableI(tb testing.TB) []*synth.Sample {
	tb.Helper()
	samples, err := corpus()
	if err != nil {
		tb.Fatal(err)
	}
	return samples
}

// tierSplices draws perTier distinct gea.Merge(orig, target) programs per
// tier from the Table I corpus. A splice's CFG has nodes(orig) +
// nodes(target) + 2 nodes (shared entry and exit), so the target is drawn
// from the node-count window that lands the splice in its tier.
func tierSplices(tb testing.TB, perTier int) [len(tiers)][]*ir.Program {
	tb.Helper()
	byNodes := append([]*synth.Sample(nil), tableI(tb)...)
	sort.SliceStable(byNodes, func(i, j int) bool { return byNodes[i].Nodes < byNodes[j].Nodes })
	nodes := make([]int, len(byNodes))
	for i, s := range byNodes {
		nodes[i] = s.Nodes
	}
	rng := rand.New(rand.NewSource(17))
	var out [len(tiers)][]*ir.Program
	for t, tier := range tiers {
		seen := make(map[[sha256.Size]byte]bool)
		for draw := 0; len(out[t]) < perTier; draw++ {
			if draw == 10000 {
				tb.Fatalf("tier %s: %d of %d splices after %d draws", tier.name, len(out[t]), perTier, draw)
			}
			orig := byNodes[rng.Intn(len(byNodes))]
			first := sort.SearchInts(nodes, tier.lo-2-orig.Nodes)
			last := sort.SearchInts(nodes, tier.hi-2-orig.Nodes+1)
			if first >= last {
				continue
			}
			target := byNodes[first+rng.Intn(last-first)]
			if target == orig {
				continue
			}
			merged, err := gea.Merge(orig.Prog, target.Prog)
			if err != nil {
				tb.Fatal(err)
			}
			cfg, err := ir.Disassemble(merged)
			if err != nil {
				tb.Fatal(err)
			}
			g := cfg.G()
			if g.N() < tier.lo || g.N() > tier.hi {
				tb.Fatalf("splice of %d+%d nodes recovered %d, outside tier %s", orig.Nodes, target.Nodes, g.N(), tier.name)
			}
			if key := features.GraphKey(g); !seen[key] {
				seen[key] = true
				out[t] = append(out[t], merged)
			}
		}
	}
	return out
}

func bitsEqual(a, b []float64) bool {
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

// TestServedTrafficBitIdentical runs what the server is sent — every
// Table I sample at its natural size and GEA splices in each cold tier —
// through the text path, the graph path and the four-traversal oracle,
// and requires the three vectors to agree bit for bit.
func TestServedTrafficBitIdentical(t *testing.T) {
	progs := make([]*ir.Program, 0, 2600)
	for _, s := range tableI(t) {
		progs = append(progs, s.Prog)
	}
	perTier := 6
	if testing.Short() {
		perTier = 2
	}
	for _, tier := range tierSplices(t, perTier) {
		progs = append(progs, tier...)
	}
	e := features.NewExtractor(0)
	for _, p := range progs {
		text := p.String()
		x, err := e.ExtractText([]byte(text))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		parsed, err := ir.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ir.Disassemble(parsed)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.G()
		naive := features.ExtractNaive(g)
		if !bitsEqual(x.Vec[:], naive) || x.Blocks != g.N() || x.Edges != g.M() {
			t.Fatalf("%s (%d nodes): ExtractText %v (%d blocks, %d edges) != naive %v",
				p.Name, g.N(), x.Vec, x.Blocks, x.Edges, naive)
		}
		if fused := features.Extract(g); !bitsEqual(fused, naive) {
			t.Fatalf("%s (%d nodes): Extract %v != naive %v", p.Name, g.N(), fused, naive)
		}
	}
}

// BenchmarkExtractTextMiss times a feature-cache miss per size tier:
// parse, disassemble, sweep and summarise. The extractor holds one entry
// and the loop cycles through distinct splices, so every call misses at
// both the text and the graph level.
func BenchmarkExtractTextMiss(b *testing.B) {
	splices := tierSplices(b, 16)
	for t, tier := range tiers {
		texts := make([][]byte, len(splices[t]))
		for i, p := range splices[t] {
			texts[i] = []byte(p.String())
		}
		b.Run(tier.name, func(b *testing.B) {
			e := features.NewExtractor(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExtractText(texts[i%len(texts)]); err != nil {
					b.Fatal(err)
				}
			}
			if s := e.Stats(); s.Hits != 0 {
				b.Fatalf("%d cache hits; every call must miss", s.Hits)
			}
		})
	}
}

// BenchmarkProfileTiers times the exact all-sources sweep alone on the
// graphs BenchmarkExtractTextMiss recovers, so the sweep's share of a miss
// reads apart from parse, disassemble and summarise. One warm Sweeper
// cycles through the tier's distinct CFGs.
func BenchmarkProfileTiers(b *testing.B) {
	splices := tierSplices(b, 16)
	for t, tier := range tiers {
		graphs := make([]*graph.Graph, len(splices[t]))
		for i, p := range splices[t] {
			cfg, err := ir.Disassemble(p)
			if err != nil {
				b.Fatal(err)
			}
			graphs[i] = cfg.G()
		}
		b.Run(tier.name, func(b *testing.B) {
			sw := graph.NewSweeper()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Profile(graphs[i%len(graphs)])
			}
		})
	}
}
