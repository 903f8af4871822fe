package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, as written to the span file.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer records
// nothing, which is how untraced runs time the same calls.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timer is an open span. It times the call whether or not it is traced.
type timer struct {
	t       *tracer
	id      int64
	parent  int64
	request int64
	name    string
	start   time.Time
}

// begin opens a span named after the layer it times; parent is the id of
// the enclosing span (0 for none) and request the request it belongs to.
func (t *tracer) begin(name string, parent, request int64) timer {
	s := timer{t: t, parent: parent, request: request, name: name, start: time.Now()}
	if t != nil {
		s.id = t.ids.Add(1)
	}
	return s
}

// end closes the span, records it when traced, and returns its duration.
func (s timer) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Request: s.request, Name: s.name,
			StartNS: s.start.Sub(s.t.epoch).Nanoseconds(), EndNS: now.Sub(s.t.epoch).Nanoseconds(),
		})
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// write stores the spans as JSON lines, in the order they ended.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover. Concurrent children are merged first,
// so overlapping requests under one round are not subtracted twice.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// selfTimeLines renders selfTimes, largest first.
func (t *tracer) selfTimeLines() []string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{"self time by span name (span minus its children):"}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("  %-24s %12.3f ms", n, float64(self[n])/1e6))
	}
	return lines
}
