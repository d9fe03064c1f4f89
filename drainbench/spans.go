package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name,
// start and end (offsets from the recorder's start), the span that
// caused it, and the request it belongs to (spans of one request share
// Req; 0 when the call serves no single request).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Req    int           `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return r.spans[id-1].dur()
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	id := r.begin(name, parent, 0)
	f()
	return r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(map[string]any{"spans": r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval covered by its children. Overlapping children
// (concurrent calls) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}
