package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public calls.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the process started measuring
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // ID of the enclosing span, -1 at the top
	Run    int     `json:"run"`    // the round the span belongs to
}

// spans keeps a run's spans in memory. A nil *spans records nothing, so
// untraced rounds pass nil through the same code.
type spans struct {
	t0    time.Time
	run   int
	spans []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) since() float64 { return time.Since(s.t0).Seconds() }

// begin opens a span under parent and returns its ID.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.spans = append(s.spans, span{ID: len(s.spans), Name: name, Start: s.since(), Parent: parent, Run: s.run})
	return len(s.spans) - 1
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.spans[id].End = s.since()
}

// total sums the durations of round run's spans named name.
func (s *spans) total(run int, name string) float64 {
	t := 0.0
	for _, sp := range s.spans {
		if sp.Run == run && sp.Name == name {
			t += sp.End - sp.Start
		}
	}
	return t
}

// write saves every span as one JSON document.
func (s *spans) write(path string) error {
	data, err := json.MarshalIndent(s.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
