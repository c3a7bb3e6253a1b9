package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the driver made into a module's public entry
// point. Spans of one request share Req; Parent names the span whose
// work this call replays a part of (0 for a whole request).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rows    int64  `json:"rows"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced comparison pass runs the
// same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(parent, req int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNS: int64(time.Since(t.t0))})
	return id
}

// end closes span id, recording the rows the call produced.
func (t *tracer) end(id int, rows int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	s.Rows = rows
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time by id: its duration minus
// the part its direct children account for. The children are replays
// run after the parent returned, so their sum can exceed the parent;
// the covered part is capped at the parent's duration.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// traceSummary aggregates one traced pass.
type traceSummary struct {
	roots      int64            // Σ duration of whole-request spans
	childCover int64            // Σ over roots of the part their children cover
	selfByName map[string]int64 // Σ self time per span name
	durByName  map[string]int64 // Σ duration per span name
	nByName    map[string]int64 // span count per name
	rowsByName map[string]int64 // Σ rows per span name
}

func summarize(spans []span) traceSummary {
	sum := traceSummary{
		selfByName: map[string]int64{}, durByName: map[string]int64{},
		nByName: map[string]int64{}, rowsByName: map[string]int64{},
	}
	self := selfTimes(spans)
	for _, s := range spans {
		sum.selfByName[s.Name] += self[s.ID]
		sum.durByName[s.Name] += s.dur()
		sum.nByName[s.Name]++
		sum.rowsByName[s.Name] += s.Rows
		if s.Parent == 0 {
			sum.roots += s.dur()
			sum.childCover += s.dur() - self[s.ID]
		}
	}
	return sum
}

// mean returns the mean duration of the spans called name.
func (s traceSummary) mean(name string) time.Duration {
	if s.nByName[name] == 0 {
		return 0
	}
	return time.Duration(s.durByName[name] / s.nByName[name])
}
