package main

import "time"

// span is one timed region of a traced run. Start and End are host
// nanoseconds since the run began; Parent is the causing span's ID, -1
// at the root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records spans in memory from the benchmark's own goroutine. A
// nil *spans records nothing, so untraced iterations pass nil.
type spans struct {
	base time.Time
	list []span
}

func newSpans(base time.Time) *spans { return &spans{base: base} }

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{ID: len(s.list), Name: name, Parent: parent, Start: time.Since(s.base).Nanoseconds()})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	s.list[id].End = time.Since(s.base).Nanoseconds()
}

// add records a span measured elsewhere (a cold set-up child), with
// times given as Unix nanoseconds.
func (s *spans) add(name string, parent int, startUnix, endUnix int64) int {
	if s == nil {
		return -1
	}
	b := s.base.UnixNano()
	s.list = append(s.list, span{ID: len(s.list), Name: name, Parent: parent, Start: startUnix - b, End: endUnix - b})
	return len(s.list) - 1
}

// seconds returns the durations of every span with the given name.
func (s *spans) seconds(name string) []float64 {
	if s == nil {
		return nil
	}
	return durations(s.list, name)
}

// durations returns the length in seconds of every span in list with
// the given name.
func durations(list []span, name string) []float64 {
	var out []float64
	for _, sp := range list {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}
