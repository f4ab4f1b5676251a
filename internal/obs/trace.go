package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// maxTraceEvents bounds the tracer's memory: a span past the cap is counted
// but not stored, so a runaway campaign cannot OOM through its own tracing.
const maxTraceEvents = 1 << 20

// Span is one completed phase on one lane, recorded as a Chrome trace_event
// complete event ("ph":"X").
type Span struct {
	Name  string
	Lane  int
	Start time.Time
	Dur   time.Duration
}

// Tracer records engine pipeline spans (instrument/execute/reset) for Chrome
// trace_event export. Lanes map to trace "tid"s: workers acquire the lowest
// free lane for the duration of a run, so the exported flame chart shows
// worker-pool utilization — concurrent runs occupy distinct rows, idle lanes
// are gaps.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	dropped int64
	lanes   []int // free-list of released lane ids, lowest reused first
	nextLn  int
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// AcquireLane reserves the lowest free lane id for a worker's run.
func (t *Tracer) AcquireLane() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.lanes); n > 0 {
		// pop the smallest id so flame-chart rows stay dense
		best := 0
		for i, l := range t.lanes {
			if l < t.lanes[best] {
				best = i
			}
		}
		lane := t.lanes[best]
		t.lanes[best] = t.lanes[n-1]
		t.lanes = t.lanes[:n-1]
		return lane
	}
	lane := t.nextLn
	t.nextLn++
	return lane
}

// ReleaseLane returns a lane to the free-list.
func (t *Tracer) ReleaseLane(lane int) {
	t.mu.Lock()
	t.lanes = append(t.lanes, lane)
	t.mu.Unlock()
}

// Record stores one completed span.
func (t *Tracer) Record(name string, lane int, start time.Time, dur time.Duration) {
	t.mu.Lock()
	if len(t.spans) >= maxTraceEvents {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{Name: name, Lane: lane, Start: start, Dur: dur})
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans were discarded after the event cap.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one Chrome trace_event record: a complete event
// ("ph":"X", with dur) or an instant ("ph":"i", with scope s, where
// viewers ignore dur).
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`  // microseconds
	Dur   int64          `json:"dur"` // microseconds
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes events in Chrome's trace_event object format
// ({"traceEvents":[...]}), loadable in chrome://tracing and Perfetto.
func writeChromeTrace(w io.Writer, events []chromeEvent) error {
	if events == nil {
		events = []chromeEvent{}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteJSON writes the recorded spans as Chrome trace_event complete
// events, timestamped relative to the tracer epoch, one tid per lane.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   s.Start.Sub(t.epoch).Microseconds(),
			Dur:  s.Dur.Microseconds(),
			Pid:  1,
			Tid:  s.Lane,
		})
	}
	t.mu.Unlock()
	return writeChromeTrace(w, events)
}
