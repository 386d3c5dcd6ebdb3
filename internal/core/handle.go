package core

import (
	"fmt"
	"sync/atomic"
)

// Handle is the mutable half of the Model/Handle split: an atomic,
// version-stamped pointer to the current serving snapshot. The serving
// stack holds one Handle for the life of the process and reads the
// current Model per batch; Swap installs a new snapshot with zero
// dropped requests — in-flight batches finish on the Model they were
// bound to (whose workspace pool they own), and the next batch each
// worker picks up binds to the new one.
//
// All methods are safe for concurrent use. The one protocol requirement
// is on the Models themselves: a Model passed to Swap must not be
// installed into more than one Handle (Swap stamps its Version before
// publishing it, and restamping a Model that other goroutines can
// already see would race).
type Handle struct {
	cur   atomic.Pointer[Model]
	swaps atomic.Uint64
}

// NewHandle returns a handle serving m. A zero-version m (a hand-built
// snapshot that never went through System.Snapshot or LoadModel) is
// stamped version 1.
func NewHandle(m *Model) *Handle {
	if m == nil {
		panic("core: NewHandle(nil)")
	}
	if m.Version == 0 {
		m.Version = 1
	}
	h := &Handle{}
	h.cur.Store(m)
	return h
}

// Current returns the serving snapshot. The returned Model is immutable
// and remains fully usable even after a later Swap — callers pin the
// snapshot for as long as they hold the pointer, which is exactly how
// in-flight batches drain on the old weights during a hot swap.
func (h *Handle) Current() *Model { return h.cur.Load() }

// Version returns the current snapshot's version stamp.
func (h *Handle) Version() uint64 { return h.cur.Load().Version }

// Swaps returns how many snapshots have been installed via Swap.
func (h *Handle) Swaps() uint64 { return h.swaps.Load() }

// Swap atomically installs m as the serving snapshot and returns the
// one it replaced. m's version is restamped to strictly exceed the
// outgoing snapshot's (a saved artifact already carrying a higher
// lineage stamp keeps it), before the pointer store publishes it, so
// every observer of the new snapshot sees its final version. Requests
// in flight on the old snapshot finish there; nothing is dropped.
func (h *Handle) Swap(m *Model) (old *Model, err error) {
	if m == nil {
		return nil, fmt.Errorf("core: swap: nil model")
	}
	if m.Scaler == nil || !m.Scaler.Fitted() || m.Net == nil {
		return nil, fmt.Errorf("core: swap: model incomplete")
	}
	for {
		old = h.cur.Load()
		if m == old {
			return nil, fmt.Errorf("core: swap: model already installed")
		}
		v := old.Version + 1
		if m.Version > v {
			v = m.Version
		}
		m.Version = v
		// The version write above happens-before the pointer store, so
		// a reader that obtains m via Current observes the final stamp.
		if h.cur.CompareAndSwap(old, m) {
			h.swaps.Add(1)
			return old, nil
		}
	}
}
