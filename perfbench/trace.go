package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a module: its name, when it started and
// ended (ns since the run began), the span that caused it, and the
// request it belongs to (0 outside a request).
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request int64  `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps a traced run's spans in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a span's children can name it as their
// parent before it ends (0 when the tracer is nil).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add stores one finished span under an id from newID.
func (t *tracer) add(id int64, name string, parent, request int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
}

// timed runs fn, records it as a span and returns its wall time.
func (t *tracer) timed(name string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(t.newID(), name, parent, 0, start, end)
	return end.Sub(start)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Provenance *Provenance `json:"provenance"`
	Spans      []Span      `json:"spans"`
}

// write stores the spans and the run's provenance as JSON under dir.
func (t *tracer) write(dir string, prov *Provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", prov.Workload, prov.Seed))
	b, err := json.Marshal(traceFile{Provenance: prov, Spans: t.snapshot()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
