package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job
// share Job; Parent links a span to the span that caused it (0 for the
// run's top-level span). A span with Calls > 0 aggregates that many
// sequential calls of one problem method made under its parent: Dur is
// their summed duration and Start the first call's start. Problem
// methods run millions of times per run, so one aggregate per parent
// keeps the trace small.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// end records the span id started at start (tracer clock).
func (t *tracer) end(id, parent, job int64, name string, start int64) {
	t.add(span{ID: id, Parent: parent, Job: job, Name: name, Start: start, Dur: t.now() - start})
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// attribution splits the wall time of every top-level span over the
// layers below it and returns, per span name, the wall seconds that
// layer accounts for on its own (its self time).
//
// A span's self time is its duration minus the time its children
// cover. Children that run at the same time (the walkers of one job,
// the shards of a fleet job, the requests of an open loop) share the
// instants they overlap equally, so the self times of a whole tree add
// up to its root's duration however parallel it is; that sum is the
// smoke test's check, and it falls short only where children overran
// their parent. Aggregated problem-method spans are sequential calls
// inside their parent and take their summed duration from it.
func (t *tracer) attribution() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]int, len(spans))
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	self := make(map[string]float64)
	var walk func(i int, share float64)
	walk = func(i int, share float64) {
		s := &spans[i]
		if s.Dur <= 0 {
			return
		}
		f := share / float64(s.Dur)
		var intervals []int
		var aggDur int64
		for _, c := range children[s.ID] {
			if spans[c].Calls > 0 {
				aggDur += spans[c].Dur
				walk(c, float64(spans[c].Dur)*f)
			} else {
				intervals = append(intervals, c)
			}
		}
		shares, uncovered := split(spans, intervals, s.Start, s.Start+s.Dur)
		for k, c := range intervals {
			walk(c, shares[k]*f)
		}
		self[s.Name] += max(float64(uncovered-aggDur), 0) * f / 1e9
	}
	for _, i := range children[0] {
		walk(i, float64(spans[i].Dur))
	}
	return self
}

// split divides [lo, hi) among the interval spans idx, clipped to it:
// each instant is shared equally by the spans covering it. It returns
// each span's share and the time no span covers, in nanoseconds.
func split(spans []span, idx []int, lo, hi int64) (shares []float64, uncovered int64) {
	shares = make([]float64, len(idx))
	if len(idx) == 0 {
		return shares, hi - lo
	}
	type edge struct {
		at    int64
		k     int
		start bool
	}
	edges := make([]edge, 0, 2*len(idx))
	for k, c := range idx {
		a, b := max(spans[c].Start, lo), min(spans[c].Start+spans[c].Dur, hi)
		if b <= a {
			continue
		}
		edges = append(edges, edge{a, k, true}, edge{b, k, false})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].start && edges[j].start
	})
	active := make(map[int]bool)
	prev := lo
	for _, e := range edges {
		if d := e.at - prev; d > 0 {
			if len(active) == 0 {
				uncovered += d
			} else {
				per := float64(d) / float64(len(active))
				for k := range active {
					shares[k] += per
				}
			}
		}
		prev = e.at
		if e.start {
			active[e.k] = true
		} else {
			delete(active, e.k)
		}
	}
	uncovered += hi - prev
	return shares, uncovered
}

// sums returns, per span name, the summed duration in seconds and the
// number of calls (spans, or aggregated calls).
func (t *tracer) sums() (dur map[string]float64, calls map[string]int64) {
	dur = make(map[string]float64)
	calls = make(map[string]int64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		dur[s.Name] += float64(s.Dur) / 1e9
		if s.Calls > 0 {
			calls[s.Name] += s.Calls
		} else {
			calls[s.Name]++
		}
	}
	return dur, calls
}
