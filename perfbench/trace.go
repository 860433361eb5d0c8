package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program:
// its name, start and end (µs since the tracer started), the span that
// caused it (0 for a root) and the counts recorded at the same boundary.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so end-to-end runs pay nothing.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// Start opens a span under parent and returns its ID.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: t.us(now), End: -1})
	return id
}

// End closes span id, attaching counts (which may be nil).
func (t *Tracer) End(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.us(now)
	t.spans[id-1].Counts = counts
}

// Record adds a span whose interval was timed elsewhere (an HTTP exchange
// seen from both of its ends).
func (t *Tracer) Record(name string, parent int, start, end time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: t.us(start), End: t.us(end), Counts: counts})
	return id
}

// named returns the closed spans called name.
func (t *Tracer) named(name string) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// MedianMS is the median duration of the spans called name, in ms; 0 when
// there are none.
func (t *Tracer) MedianMS(name string) float64 {
	var ds []float64
	for _, s := range t.named(name) {
		ds = append(ds, (s.End-s.Start)/1e3)
	}
	return median(ds)
}

// SumMS totals the durations of the spans called name, in ms.
func (t *Tracer) SumMS(name string) float64 {
	var sum float64
	for _, s := range t.named(name) {
		sum += (s.End - s.Start) / 1e3
	}
	return sum
}

// MedianCount is the median over the spans called name of one count.
func (t *Tracer) MedianCount(name, count string) float64 {
	var vs []float64
	for _, s := range t.named(name) {
		vs = append(vs, s.Counts[count])
	}
	return median(vs)
}

// MedianRate is the median over the spans called name of one count per
// second of span duration.
func (t *Tracer) MedianRate(name, count string) float64 {
	var vs []float64
	for _, s := range t.named(name) {
		if d := (s.End - s.Start) / 1e6; d > 0 {
			vs = append(vs, s.Counts[count]/d)
		}
	}
	return median(vs)
}

// Write stores every span as JSON at path.
func (t *Tracer) Write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// children returns the closed spans called name whose parent is parent.
func (t *Tracer) children(parent int, name string) []Span {
	var out []Span
	for _, s := range t.named(name) {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}
