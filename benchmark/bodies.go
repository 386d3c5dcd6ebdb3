package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"

	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/ir"
	"advmal/internal/synth"
)

// warmSetSize is the size of cmd/loadgen's default working set: 32
// natural-size programs, far below the 4096-entry feature cache.
const warmSetSize = 32

// tier is one CFG-size class of the cold traffic, by recovered node
// count. The companion study (arXiv:1902.04416) splices targets of
// minimum, median and maximum size; these are the three sizes as traffic.
type tier struct {
	name   string
	lo, hi int
}

var tiers = [3]tier{{"s", 48, 80}, {"m", 160, 224}, {"l", 320, 448}}

// body is one request payload with what the generator knows about it.
type body struct {
	text  string
	tier  int // index into tiers; -1 for natural-size programs
	nodes int
	key   [sha256.Size]byte
}

// bySizeQuantiles returns n of the samples: the corpus in order of CFG
// size, cut into n equal parts, the middle sample of each. The synth
// generator's size distribution barely moves with the seed, so the pick
// has nearly the same sizes, tail included, for every seed; a random n
// would not, and the tail is what sets a p95.
func bySizeQuantiles(samples []*synth.Sample, n int) []*synth.Sample {
	sorted := append([]*synth.Sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Nodes < sorted[j].Nodes })
	out := make([]*synth.Sample, n)
	for k := range out {
		out[k] = sorted[(2*k+1)*len(sorted)/(2*n)]
	}
	return out
}

// naturalBodies returns n natural-size programs of the corpus as request
// bodies (see bySizeQuantiles).
func naturalBodies(samples []*synth.Sample, n int) ([]body, error) {
	out := make([]body, n)
	for i, s := range bySizeQuantiles(samples, n) {
		b, err := describe(s.Prog, -1)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func describe(p *ir.Program, tierIdx int) (body, error) {
	cfg, err := ir.Disassemble(p)
	if err != nil {
		return body{}, fmt.Errorf("bodies: %w", err)
	}
	g := cfg.G()
	return body{text: p.String(), tier: tierIdx, nodes: g.N(), key: features.GraphKey(g)}, nil
}

// tieredSplices returns n distinct gea.Merge(orig, target) programs from
// the corpus, tiers interleaved s, m, l, s, m, l, ... so any prefix holds
// them in equal shares. Every body has its own features.GraphKey, so the
// server's feature cache can never hit. It fails rather than return
// fewer than n bodies or a body outside its tier.
func tieredSplices(samples []*synth.Sample, seed int64, n int) ([]body, error) {
	byNodes := make([]*synth.Sample, len(samples))
	copy(byNodes, samples)
	sort.SliceStable(byNodes, func(i, j int) bool { return byNodes[i].Nodes < byNodes[j].Nodes })
	nodes := make([]int, len(byNodes))
	for i, s := range byNodes {
		nodes[i] = s.Nodes
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	seen := make(map[[sha256.Size]byte]bool, n)
	out := make([]body, 0, n)
	for len(out) < n {
		t := len(out) % len(tiers)
		b, err := spliceInTier(byNodes, nodes, rng, t, seen)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// spliceInTier draws (orig, target) pairs until one merges into a CFG of
// the tier's size with a key not seen before. A merged CFG has exactly
// nodes(orig) + nodes(target) + 2 nodes (shared entry and exit), so the
// target is drawn from the node-count window that lands in the tier.
func spliceInTier(byNodes []*synth.Sample, nodes []int, rng *rand.Rand, t int, seen map[[sha256.Size]byte]bool) (body, error) {
	const maxDraws = 10000
	lo, hi := tiers[t].lo, tiers[t].hi
	for draw := 0; draw < maxDraws; draw++ {
		orig := byNodes[rng.Intn(len(byNodes))]
		first := sort.SearchInts(nodes, lo-2-orig.Nodes)
		last := sort.SearchInts(nodes, hi-2-orig.Nodes+1)
		if first >= last {
			continue
		}
		target := byNodes[first+rng.Intn(last-first)]
		if target == orig {
			continue
		}
		merged, err := gea.Merge(orig.Prog, target.Prog)
		if err != nil {
			return body{}, fmt.Errorf("bodies: merge %s into %s: %w", target.Name, orig.Name, err)
		}
		b, err := describe(merged, t)
		if err != nil {
			return body{}, err
		}
		if b.nodes < lo || b.nodes > hi {
			return body{}, fmt.Errorf("bodies: splice of %d+%d nodes recovered %d, outside tier %s [%d,%d]",
				orig.Nodes, target.Nodes, b.nodes, tiers[t].name, lo, hi)
		}
		if seen[b.key] {
			continue
		}
		seen[b.key] = true
		return b, nil
	}
	return body{}, fmt.Errorf("bodies: no unseen splice in tier %s after %d draws", tiers[t].name, maxDraws)
}

// checkColdBodies asserts what the cold workload depends on: pairwise
// distinct keys and exact tier shares. The run aborts if it fails.
func checkColdBodies(bodies []body) error {
	seen := make(map[[sha256.Size]byte]bool, len(bodies))
	var perTier [len(tiers)]int
	for i, b := range bodies {
		if seen[b.key] {
			return fmt.Errorf("bodies: body %d repeats a GraphKey", i)
		}
		seen[b.key] = true
		if b.tier != i%len(tiers) {
			return fmt.Errorf("bodies: body %d is tier %d, want %d", i, b.tier, i%len(tiers))
		}
		if b.nodes < tiers[b.tier].lo || b.nodes > tiers[b.tier].hi {
			return fmt.Errorf("bodies: body %d has %d nodes, outside tier %s", i, b.nodes, tiers[b.tier].name)
		}
		perTier[b.tier]++
	}
	for t := 1; t < len(tiers); t++ {
		if d := perTier[0] - perTier[t]; d < 0 || d > 1 {
			return fmt.Errorf("bodies: tier shares %v are not equal", perTier)
		}
	}
	return nil
}

// payloadStats fills the conditions stamp's payload block.
func payloadStats(bodies []body, into map[string]float64) {
	var bytes float64
	var nodes, count [len(tiers) + 1]float64 // last slot: untiered
	for _, b := range bodies {
		bytes += float64(len(b.text))
		slot := b.tier
		if slot < 0 {
			slot = len(tiers)
		}
		nodes[slot] += float64(b.nodes)
		count[slot]++
	}
	into["bodies"] = float64(len(bodies))
	if len(bodies) > 0 {
		into["mean_body_bytes"] = bytes / float64(len(bodies))
	}
	for t, tr := range tiers {
		if count[t] > 0 {
			into["mean_nodes_tier_"+tr.name] = nodes[t] / count[t]
		}
	}
	if c := count[len(tiers)]; c > 0 {
		into["mean_nodes"] = nodes[len(tiers)] / c
	}
}
