package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the programs themselves are not instrumented here).
type span struct {
	ID     int
	Parent int    // 0: none
	Layer  string // sim, rma, ..., http, proc
	Name   string
	Ref    string // request id shared by the spans of one job
	Lane   int    // client number, for display
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run pays nothing for it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it and the
// span's id, for children to name as their parent.
func (r *recorder) begin(layer, name, ref string, lane, parent int) (end func(), id int) {
	if r == nil {
		return func() {}, 0
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{Parent: parent, Layer: layer, Name: name, Ref: ref, Lane: lane, Start: start})
	id = len(r.spans)
	r.spans[id-1].ID = id
	r.mu.Unlock()
	return func() {
		stop := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id-1].End = stop
		r.mu.Unlock()
	}, id
}

// durationsMS returns the durations, in milliseconds, of the closed
// spans with the given layer and name.
func (r *recorder) durationsMS(layer, name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

// writeChrome writes the spans once, as Chrome trace-event JSON
// (complete "X" events; loads in Perfetto and chrome://tracing).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		events = append(events, event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "ref": s.Ref},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
