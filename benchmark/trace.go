package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// span is the handle begin returns and end closes.
type span struct{ id int }

// recorder keeps spans in memory until the run ends; the benchmark's
// own files record them around their calls into each layer, nothing
// inside the measured program is instrumented. A nil recorder records
// nothing, which is what "tracing off" means.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRecord
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]spanRecord, 0, 1<<16)}
}

func (r *recorder) begin(req, parent int, name string) span {
	if r == nil {
		return span{}
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRecord{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return span{id}
}

func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[s.id].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the engine
// reports queue wait and execution time as durations, not as events).
func (r *recorder) add(req, parent int, name string, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, spanRecord{ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []spanRecord) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerMedians groups spans by name and returns the median duration and
// median self time of each name, in microseconds, with the span count.
type layerStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	DurUS  float64 `json:"median_us"`
	SelfUS float64 `json:"median_self_us"`
}

func layerMedians(spans []spanRecord) map[string]layerStat {
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[i])/1e3)
	}
	out := make(map[string]layerStat, len(durs))
	for name, d := range durs {
		out[name] = layerStat{Name: name, Count: len(d), DurUS: median(d), SelfUS: median(selfs[name])}
	}
	return out
}

// writeJSON writes v to path, compactly: a trace is hundreds of
// thousands of spans.
func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
