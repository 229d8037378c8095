package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Times are offsets from the run's origin.
// Engine stage spans are derived from the Stats the query call returns:
// they carry the stage's duration and are laid end to end from the start
// of their parent, since the engine does not report when a stage began.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps one client's spans in memory; each client owns its own
// recorder, so recording takes no lock.
type recorder struct {
	origin time.Time
	client int
	spans  []span
}

// add records a span and returns its id for use as a parent.
func (r *recorder) add(name string, op int64, parent int, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		Name: name, Op: op, ID: id, Parent: parent,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
	})
	return id
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		self := s.dur() - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// writeSpans writes every client's spans as JSON lines, one span a line,
// each tagged with its client.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{r.client, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
