package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iophases/internal/trace"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans stay in memory until the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Op     int           `json:"op"`     // traced op the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans. Calls may come from sweep-pool workers (trace
// reads inside phase.IdentifyStream), so it is safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed records fn as one span.
func (r *recorder) timed(name string, parent, op int, fn func()) span {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
	return r.get(id)
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id]
}

// children returns the intervals of id's direct children.
func (r *recorder) children(id int) []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []interval
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s.interval())
		}
	}
	return out
}

// self is span id's self time.
func (r *recorder) self(id int) time.Duration {
	return selfTime(r.get(id).interval(), r.children(id))
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedSource wraps a trace.Source so every OpenRank and Read call becomes
// a span under parent; the events it hands out are counted.
type tracedSource struct {
	trace.Source
	rec        *recorder
	parent, op int
	events     atomic.Int64
}

func (s *tracedSource) OpenRank(p int) (trace.Reader, error) {
	id := s.rec.begin("trace.OpenRank", s.parent, s.op)
	r, err := s.Source.OpenRank(p)
	s.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedReader{Reader: r, src: s}, nil
}

type tracedReader struct {
	trace.Reader
	src *tracedSource
}

func (r *tracedReader) Read(buf []trace.Event) (int, error) {
	id := r.src.rec.begin("trace.Read", r.src.parent, r.src.op)
	n, err := r.Reader.Read(buf)
	r.src.rec.end(id)
	r.src.events.Add(int64(n))
	return n, err
}
