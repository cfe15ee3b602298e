package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call: its parent is the span that was open when it
// began (-1 at the root). Times are host nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// spanSummary is one span name's aggregate: calls, total and self time.
// Self time is the total minus the part its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	TotalNS int64   `json:"-"`
}

func (t *tracer) summary() []spanSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanSummary{}
	var order []string
	for i, s := range t.spans {
		sum, ok := byName[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		sum.Calls++
		sum.TotalNS += d
		sum.TotalS += float64(d) / 1e9
		sum.SelfS += float64(d-child[i]) / 1e9
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalNS > out[j].TotalNS })
	return out
}

// write emits every span as one JSON line, in start order.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
