package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 for a root); Cell ties together the spans of one
// simulation cell or fuzz verdict ("" for spans outside any cell).
type span struct {
	Name    string `json:"name"`
	Cell    string `json:"cell,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory for the traced pass; they are written
// out once the run ends. A nil *tracer records nothing, so the timed
// passes run the same code with tracing off.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, cell string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, StartNs: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNs = int64(time.Since(t.epoch))
}

// total sums the durations of spans with the given name, restricted to
// those whose cell passes keep (nil keeps all).
func (t *tracer) total(name string, keep func(cell string) bool) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name && (keep == nil || keep(sp.Cell)) {
			s += sp.dur()
		}
	}
	return s
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover. Children of one
// span are sequential here, so their durations never overlap.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.dur()
		}
	}
	self := make(map[string]float64)
	for i, sp := range t.spans {
		self[sp.Name] += sp.dur() - child[i]
	}
	return self
}

// write stores the spans with the run's identity and host fingerprint.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	header["spans"] = t.spans
	b, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
