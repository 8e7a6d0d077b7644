package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Parent is the index of the enclosing
// span (-1 for a root); ID groups the spans of one round or request.
type span struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	ID     string  `json:"id,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a finished span and returns its index.
func (t *tracer) add(name, layer string, start, end time.Time, parent int, id string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Parent: parent, ID: id,
	})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; close fills it in.
func (t *tracer) open(name, layer string, start time.Time, parent int, id string) int {
	return t.add(name, layer, start, start, parent, id)
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end.Sub(t.t0).Seconds()
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed span durations minus the
// part of each span's interval that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		d -= coverage(children[i], s.Start, s.End)
		out[s.Layer] += d
	}
	return out
}

// coverage returns the length of the union of the intervals, clipped
// to [lo, hi].
func coverage(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	c := make([][2]float64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b > a {
			c = append(c, [2]float64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range c {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write saves the spans and the run's stamp as one JSON document.
func (t *tracer) write(path string, stamp any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"env": stamp, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// childCoverage returns the seconds of span parent's interval that its
// child spans cover.
func (t *tracer) childCoverage(parent int) float64 {
	if t == nil || parent < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var iv [][2]float64
	for _, s := range t.spans {
		if s.Parent == parent {
			iv = append(iv, [2]float64{s.Start, s.End})
		}
	}
	p := t.spans[parent]
	return coverage(iv, p.Start, p.End)
}
