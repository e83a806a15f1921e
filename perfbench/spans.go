package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one served
// request share Req; Parent links a span to the one that caused it.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Req    int           `json:"req"`    // -1 = not part of a request
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was made
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"` // filled in by finishSelf
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends
// so file I/O never lands inside a measured interval.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// reserve allocates an id for a span whose children finish before it
// does; close fills in its interval.
func (t *tracer) reserve(name string, parent, req int) int {
	return t.record(name, parent, req, t.origin, t.origin)
}

func (t *tracer) close(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.origin)
	t.spans[id-1].End = end.Sub(t.origin)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once, and a child running past its parent is clipped).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeJSONL writes every span, with its self time, one JSON object per
// line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.Self = self[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
