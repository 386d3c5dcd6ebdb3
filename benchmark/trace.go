package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share Request; Parent is the ID of the span that caused this one, or
// -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory, single goroutine, and writes them out
// when the run ends. The benchmark records spans from its own files,
// around the calls into each layer; the program has no spans yet.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(request int, layer, name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Layer: layer, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open one, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover. Children of one parent never overlap here (one
// goroutine), so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// spanCost calibrates what one span costs by recording n empty ones.
func spanCost(n int) time.Duration {
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(0, "trace", "calibrate"))
	}
	return time.Since(start) / time.Duration(n)
}

// layerSelf is one row of the trace file's summary.
type layerSelf struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfMs float64 `json:"self_ms"`
	WallMs float64 `json:"wall_ms"`
}

func selfByLayer(spans []span) []layerSelf {
	self := selfTimes(spans)
	byKey := map[string]*layerSelf{}
	for i, s := range spans {
		key := s.Layer + "\x00" + s.Name
		row := byKey[key]
		if row == nil {
			row = &layerSelf{Layer: s.Layer, Name: s.Name}
			byKey[key] = row
		}
		row.Calls++
		row.SelfMs += float64(self[i]) / 1e6
		row.WallMs += float64(s.EndNs-s.StartNs) / 1e6
	}
	rows := make([]layerSelf, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// write stores the spans and their per-layer self-time summary in
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, stamp any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload   string      `json:"workload"`
		Conditions any         `json:"conditions"`
		Summary    []layerSelf `json:"summary"`
		Spans      []span      `json:"spans"`
	}{workload, stamp, selfByLayer(t.spans), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
