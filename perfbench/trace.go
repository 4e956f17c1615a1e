package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call: a root span per operation, a child span per call
// into a layer. All spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for one client goroutine. A nil recorder is
// switched off: begin and end return at once.
type recorder struct {
	base  time.Time
	spans []span
	stack []int // open spans, innermost last
	ops   int
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span as a child of the innermost open span, or as the root
// span of a new operation, and returns its id for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	s := span{Name: name, ID: id, Parent: -1}
	if n := len(r.stack); n > 0 {
		s.Parent = r.stack[n-1]
		s.Op = r.spans[s.Parent].Op
	} else {
		r.ops++
		s.Op = r.ops
	}
	s.Start = int64(time.Since(r.base))
	r.spans = append(r.spans, s)
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.base))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's self time: its duration minus the time its
// children cover. Spans of one client never overlap their siblings, so the
// children's durations simply add up.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
