package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the default number of ring points per backend.
// At 128 points the expected per-backend load imbalance over random keys
// is within ~±20% of the mean (the ring property test pins this).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a fixed set of node
// IDs. Each node contributes VirtualNodes points, hashed from its ID, so
// the mapping is a pure function of the ID set: two gateways configured
// with the same backends route identically, and restarting the gateway
// preserves every replica's cache affinity.
//
// Membership changes are modeled by building a new ring (the backend set
// is static per gateway process) or, at lookup time, by filtering nodes
// with an accept predicate — skipping a node hands its keys to the next
// point clockwise, which is exactly the remap a removal would cause, so
// ejected backends lose their keys to their ring successors and get them
// back untouched on re-admission.
type Ring struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds a ring over the given node IDs with vnodes points per
// node (vnodes <= 0 selects DefaultVirtualNodes).
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{n: len(ids), points: make([]ringPoint, 0, len(ids)*vnodes)}
	for node, id := range ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, v), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // deterministic tie-break
	})
	return r
}

// pointHash places one virtual node on the ring. SHA-256 keeps the
// points uniformly spread regardless of how similar the IDs are
// (host:8001 vs host:8002 differ by one byte).
func pointHash(id string, v int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", id, v)))
	return binary.BigEndian.Uint64(sum[:8])
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return r.n }

// Owner returns the node owning key: the node of the first ring point
// clockwise from key (wrapping). -1 when the ring is empty.
func (r *Ring) Owner(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	return r.points[r.search(key)].node
}

// Successors walks the ring clockwise from key and returns up to max
// distinct nodes passing accept (nil accepts every node). The first
// entry is the key's owner among accepted nodes; subsequent entries are
// the natural failover order, i.e. where the key's shard replicates.
func (r *Ring) Successors(key uint64, max int, accept func(node int) bool) []int {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	if max > r.n {
		max = r.n
	}
	out := make([]int, 0, max)
	seen := make(map[int]bool, max)
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if seen[node] {
			continue
		}
		seen[node] = true
		if accept == nil || accept(node) {
			out = append(out, node)
		}
	}
	return out
}

// search returns the index of the first point with hash >= key,
// wrapping to 0 past the end.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// KeyFromSum projects a 32-byte SHA-256 (of a program's text or of a
// request body) onto the ring's key space.
func KeyFromSum(sum [sha256.Size]byte) uint64 {
	return binary.BigEndian.Uint64(sum[:8])
}
