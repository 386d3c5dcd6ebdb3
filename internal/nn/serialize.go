package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the on-disk weight format: parameter name -> values.
type snapshot struct {
	Params map[string][]float64
}

// Save writes the network weights to w in gob format. The architecture
// itself is code, so only weights are persisted; Load requires a network
// built with the same constructor.
func (n *Network) Save(w io.Writer) error {
	snap := snapshot{Params: make(map[string][]float64, len(n.Params()))}
	for _, p := range n.Params() {
		if _, dup := snap.Params[p.Name]; dup {
			return fmt.Errorf("nn: save: duplicate parameter name %q", p.Name)
		}
		snap.Params[p.Name] = append([]float64(nil), p.W...)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// CloneInto copies this network's weights into dst, which must share the
// architecture (same parameter names and sizes). Unlike CloneShared, dst
// owns private weight tensors afterwards: training dst never touches the
// source. The online-retraining path uses it to warm-start a candidate
// from the live model's weights without aliasing them.
func (n *Network) CloneInto(dst *Network) error {
	src := n.Params()
	out := dst.Params()
	if len(src) != len(out) {
		return fmt.Errorf("nn: clone: %d params into %d", len(src), len(out))
	}
	for i, p := range src {
		q := out[i]
		if q.Name != p.Name || len(q.W) != len(p.W) {
			return fmt.Errorf("nn: clone: param %d is %q[%d], want %q[%d]",
				i, q.Name, len(q.W), p.Name, len(p.W))
		}
		copy(q.W, p.W)
		q.wrote()
	}
	return nil
}

// SnapshotClasses peeks at a weight blob written by Save and reports the
// width of the PaperCNN softmax head — the length of the output-layer
// bias — without building a network. Model loaders use it to size the
// head before Load and to reject a blob whose width contradicts the
// labeled class count at load time instead of deep inside inference.
func SnapshotClasses(r io.Reader) (int, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("nn: snapshot classes: %w", err)
	}
	bias, ok := snap.Params["logits.b"]
	if !ok {
		return 0, fmt.Errorf("nn: snapshot classes: weight blob has no %q parameter", "logits.b")
	}
	if len(bias) < 2 {
		return 0, fmt.Errorf("nn: snapshot classes: output bias has %d values, want >= 2", len(bias))
	}
	return len(bias), nil
}

// Load restores weights previously written by Save into a network with an
// identical architecture.
func (n *Network) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	for _, p := range n.Params() {
		vals, ok := snap.Params[p.Name]
		if !ok {
			return fmt.Errorf("nn: load: missing parameter %q", p.Name)
		}
		if len(vals) != len(p.W) {
			return fmt.Errorf("nn: load: parameter %q has %d values, want %d",
				p.Name, len(vals), len(p.W))
		}
		copy(p.W, vals)
		p.wrote()
	}
	return nil
}
