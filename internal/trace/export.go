package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Meta carries run metadata embedded in exported traces (the Chrome
// file's otherData, which Perfetto shows as trace metadata): the run's
// label and the machine shape it ran on.
type Meta struct {
	// Label describes the run (grid cell key, seed, ...).
	Label string
	// P is the process count; PPN the processes per node.
	P   int
	PPN int
}

// chromeEvent is one Chrome trace-event record (the JSON array format
// Perfetto and chrome://tracing load). Field set kept to the documented
// minimum: name/cat/ph/ts/pid/tid plus dur for complete events and s
// for instant scope.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the object form of the trace-event format.
type chromeFile struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// chromePid is the single process id under which all ranks appear as
// threads.
const chromePid = 1

// us converts a virtual-ns clock to the trace-event µs timescale.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChrome exports a canonical event stream as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing). Ranks map to threads
// of one process; lock waits and holds become complete ("X") spans —
// named after the lock id, with the raw acquire clock in args.c so
// downstream tools keep full precision — and scheduler/RMA events
// become instants. Output is deterministic: map keys are sorted by
// encoding/json and events are emitted in canonical order.
func WriteChrome(w io.Writer, events []Event, meta Meta) error {
	f := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, len(events)+1),
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"schema": "rmalocks-trace/v1",
			"label":  meta.Label,
			"p":      meta.P,
			"ppn":    meta.PPN,
		},
	}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: chromePid, Tid: 0,
		Args: map[string]any{"name": "ranks"},
	})

	type lockKey struct {
		rank int32
		lock int64
	}
	waitStart := map[lockKey]int64{} // EvAcqStart clock
	holdStart := map[lockKey]Event{} // EvAcquired event
	mode := func(e Event) string {
		if e.Arg1 != 0 {
			return "w"
		}
		return "r"
	}
	span := func(name, cat string, e Event, from, to int64, args map[string]any) {
		d := us(to - from)
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: name, Cat: cat, Ph: "X", Ts: us(from), Dur: &d,
			Pid: chromePid, Tid: int(e.Rank), Args: args,
		})
	}
	instant := func(name, cat string, e Event, args map[string]any) {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: name, Cat: cat, Ph: "i", Ts: us(e.Clock),
			Pid: chromePid, Tid: int(e.Rank), S: "t", Args: args,
		})
	}

	for _, e := range events {
		switch e.Kind {
		case EvAcqStart:
			waitStart[lockKey{e.Rank, e.Arg0}] = e.Clock
		case EvAcquired:
			k := lockKey{e.Rank, e.Arg0}
			if start, ok := waitStart[k]; ok {
				delete(waitStart, k)
				span(fmt.Sprintf("wait L%d", e.Arg0), "wait", e, start, e.Clock,
					map[string]any{"lock": e.Arg0, "mode": mode(e), "c": e.Clock})
			}
			holdStart[k] = e
		case EvRelease:
			k := lockKey{e.Rank, e.Arg0}
			if acq, ok := holdStart[k]; ok {
				delete(holdStart, k)
				span(fmt.Sprintf("hold L%d", e.Arg0), "lock", e, acq.Clock, e.Clock,
					map[string]any{"lock": e.Arg0, "mode": mode(e), "c": acq.Clock, "elem": acq.Arg2})
			}
		case EvAcqTimeout:
			k := lockKey{e.Rank, e.Arg0}
			if start, ok := waitStart[k]; ok {
				delete(waitStart, k)
				span(fmt.Sprintf("wait-timeout L%d", e.Arg0), "timeout", e, start, e.Clock,
					map[string]any{"lock": e.Arg0, "mode": mode(e), "c": e.Clock})
			}
		case EvOp:
			name := "op"
			if e.Arg0 >= 0 && int(e.Arg0) < len(OpNames) {
				name = OpNames[e.Arg0]
			}
			instant(name, "rma", e, map[string]any{"target": e.Arg1, "land": e.Arg2})
		case EvBlock, EvWake, EvBarrier:
			instant(e.Kind.String(), "sched", e, map[string]any{"a": e.Arg0})
		case EvDispatch:
			instant(e.Kind.String(), "charge", e, map[string]any{"a": e.Arg0})
		case EvAdvance, EvFlush:
			instant(e.Kind.String(), "charge", e, map[string]any{"d": e.Arg0})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteCSV exports a canonical event stream as CSV with one row per
// event: clock,rank,seq,kind,arg0,arg1,arg2. The output is the
// byte-exact canonical encoding the differential suite compares.
func WriteCSV(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "clock,rank,seq,kind,arg0,arg1,arg2"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d\n",
			e.Clock, e.Rank, e.Seq, e.Kind, e.Arg0, e.Arg1, e.Arg2); err != nil {
			return err
		}
	}
	return bw.Flush()
}
