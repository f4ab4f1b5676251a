package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// FlightConfig sizes and shapes a FlightRecorder.
type FlightConfig struct {
	// Budget bounds the total number of retained traces. A quarter of it is
	// reserved for the deterministic healthy sample, the rest for
	// interesting traces; interesting traces are never evicted to make room
	// for healthy ones. Default 4096.
	Budget int
	// SampleN keeps 1 healthy trace in N, keyed on the trace ID so the
	// sample is identical at any worker count. <= 0 disables healthy
	// sampling (interesting traces are still kept).
	SampleN int
	// DeterministicOnly restricts the "interesting" classification to
	// signals that are pure functions of (spec, seed, chaos seed) — outcome
	// and retry count — excluding wall-clock-driven deadline misses. Chaos
	// campaigns arm it so the retained ID set is byte-identical across
	// worker counts, mirroring what the chaos digest excludes.
	DeterministicOnly bool
}

// DefaultFlightBudget is the retained-trace budget when the config leaves
// Budget zero.
const DefaultFlightBudget = 4096

// DefaultFlightSampleN is the healthy sampling rate when the config leaves
// SampleN zero at the CLI layer (the recorder itself treats <= 0 as "no
// healthy sampling").
const DefaultFlightSampleN = 64

// TraceRecord is the serialized form of a finished RequestTrace — the unit
// the flight recorder retains, checkpoints and exports.
type TraceRecord struct {
	TraceID string `json:"trace_id"`
	Class   string `json:"class"`
	Index   uint64 `json:"index"`
	// StartUS is the trace start relative to the recorder epoch. Wall-clock
	// only — not part of any determinism contract.
	StartUS      int64  `json:"start_us"`
	Outcome      string `json:"outcome"`
	Attempts     int    `json:"attempts,omitempty"`
	Retried      bool   `json:"retried,omitempty"`
	DeadlineMiss bool   `json:"deadline_miss,omitempty"`
	// Sampled marks a healthy trace kept by the 1-in-N sample rather than
	// by the always-keep interest rules.
	Sampled bool         `json:"sampled,omitempty"`
	Events  []TraceEvent `json:"events"`
}

// FlightSummary is the recorder's accounting, embedded in the serve summary.
// Finished and the Evicted counters are monotonic; the rest count currently
// retained records by category.
type FlightSummary struct {
	Finished           int64 `json:"finished"`
	Retained           int   `json:"retained"`
	Interesting        int   `json:"interesting"`
	SampledHealthy     int   `json:"sampled_healthy"`
	Faulted            int64 `json:"faulted"`
	Retried            int64 `json:"retried"`
	Rejected           int64 `json:"rejected"`
	Shed               int64 `json:"shed"`
	DeadlineMissed     int64 `json:"deadline_missed"`
	Abandoned          int64 `json:"abandoned"`
	EvictedInteresting int64 `json:"evicted_interesting"`
	EvictedSampled     int64 `json:"evicted_sampled"`
}

// FlightState is a FlightRecorder's full serializable contents, carried in
// the campaign checkpoint so a crash-and-resume (or the supervisor's
// postmortem dump) keeps the black box.
type FlightState struct {
	Budget             int           `json:"budget"`
	SampleN            int           `json:"sample_n"`
	Deterministic      bool          `json:"deterministic,omitempty"`
	Finished           int64         `json:"finished"`
	EvictedInteresting int64         `json:"evicted_interesting,omitempty"`
	EvictedSampled     int64         `json:"evicted_sampled,omitempty"`
	Interesting        []TraceRecord `json:"interesting"`
	Sampled            []TraceRecord `json:"sampled,omitempty"`
}

// FlightRecorder is the tail-sampling trace sink: every finished trace
// passes through Finish, which always keeps interesting ones (faulted,
// retried, shed, rejected, abandoned, deadline-missed) and a deterministic
// 1-in-N sample of healthy ones, under a fixed budget. Finish takes one
// short mutex section — it is off the execution hot path (traces are
// finished after terminal accounting) and only exists at all when a
// recorder is armed.
type FlightRecorder struct {
	mu    sync.Mutex
	cfg   FlightConfig
	epoch time.Time

	interesting []TraceRecord // FIFO ring, never evicted by healthy traces
	sampled     []TraceRecord // FIFO ring for the healthy sample

	finished           int64
	evictedInteresting int64
	evictedSampled     int64
}

// NewFlightRecorder builds a recorder; a zero Budget takes the default.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultFlightBudget
	}
	return &FlightRecorder{cfg: cfg, epoch: time.Now()}
}

// SetDeterministicOnly toggles the deterministic interest classification.
// Call before any Finish (the serving layer arms it when a chaos campaign
// starts).
func (f *FlightRecorder) SetDeterministicOnly(v bool) {
	f.mu.Lock()
	f.cfg.DeterministicOnly = v
	f.mu.Unlock()
}

// caps returns the ring capacities under the budget split.
func (f *FlightRecorder) caps() (interesting, sampled int) {
	sampled = f.cfg.Budget / 4
	if sampled < 1 {
		sampled = 1
	}
	return f.cfg.Budget - sampled, sampled
}

// Finish marks the trace's terminal outcome and retains it under the
// sampling policy. It is the hand-off point: the caller must not touch the
// trace afterwards.
func (f *FlightRecorder) Finish(t *RequestTrace, outcome string) {
	t.Complete(outcome)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished++
	iCap, sCap := f.caps()
	if f.interestingLocked(t) {
		if len(f.interesting) >= iCap {
			f.interesting = f.interesting[1:]
			f.evictedInteresting++
		}
		f.interesting = append(f.interesting, f.record(t, false))
		return
	}
	if f.cfg.SampleN > 0 && uint64(t.ID)%uint64(f.cfg.SampleN) == 0 {
		if len(f.sampled) >= sCap {
			f.sampled = f.sampled[1:]
			f.evictedSampled++
		}
		f.sampled = append(f.sampled, f.record(t, true))
	}
}

// record builds the exported form of a retained trace. Finish calls it only
// for the traces it keeps, so the ID is formatted for those alone.
func (f *FlightRecorder) record(t *RequestTrace, sampled bool) TraceRecord {
	return TraceRecord{
		TraceID:      t.ID.String(),
		Class:        t.Class,
		Index:        t.Index,
		StartUS:      t.Start.Sub(f.epoch).Microseconds(),
		Outcome:      t.Outcome,
		Attempts:     t.Attempts,
		Retried:      t.Retried,
		DeadlineMiss: t.DeadlineMiss,
		Sampled:      sampled,
		Events:       t.Events,
	}
}

// interestingLocked is the always-keep classification. Outcome and retry
// count are pure functions of (spec, seed, chaos seed); a deadline miss is
// wall-clock-driven, so DeterministicOnly excludes it — the same exclusion
// the chaos digest makes.
func (f *FlightRecorder) interestingLocked(t *RequestTrace) bool {
	if t.Retried {
		return true
	}
	switch t.Outcome {
	case OutcomeFault, OutcomeRejected, OutcomeShedQueue, OutcomeShedBucket,
		OutcomeShedDelay, OutcomeAbandoned:
		return true
	}
	return t.DeadlineMiss && !f.cfg.DeterministicOnly
}

// Records returns every retained record, sorted by stream index — the
// deterministic order exports use.
func (f *FlightRecorder) Records() []TraceRecord {
	f.mu.Lock()
	out := make([]TraceRecord, 0, len(f.interesting)+len(f.sampled))
	out = append(out, f.interesting...)
	out = append(out, f.sampled...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Summary returns the recorder's accounting.
func (f *FlightRecorder) Summary() FlightSummary {
	f.mu.Lock()
	s := FlightSummary{
		Finished:           f.finished,
		Retained:           len(f.interesting) + len(f.sampled),
		Interesting:        len(f.interesting),
		SampledHealthy:     len(f.sampled),
		EvictedInteresting: f.evictedInteresting,
		EvictedSampled:     f.evictedSampled,
	}
	for _, r := range f.interesting {
		switch r.Outcome {
		case OutcomeFault:
			s.Faulted++
		case OutcomeRejected:
			s.Rejected++
		case OutcomeShedQueue, OutcomeShedBucket, OutcomeShedDelay:
			s.Shed++
		case OutcomeAbandoned:
			s.Abandoned++
		}
		if r.Retried {
			s.Retried++
		}
		if r.DeadlineMiss {
			s.DeadlineMissed++
		}
	}
	f.mu.Unlock()
	return s
}

// WriteJSONLines writes the retained records as JSON lines (one record per
// line, stream-index order) — the flight-record dump format.
func (f *FlightRecorder) WriteJSONLines(w io.Writer) error {
	for _, r := range f.Records() {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes the retained records in the Chrome trace_event
// format (chrome://tracing, Perfetto). Each class renders as one tid row;
// timed events become complete ("X") slices, instants become "i" marks.
func (f *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	tids := map[string]int{}
	var events []chromeEvent
	for _, r := range f.Records() {
		tid, ok := tids[r.Class]
		if !ok {
			tid = len(tids) + 1
			tids[r.Class] = tid
		}
		args := map[string]any{"trace_id": r.TraceID, "outcome": r.Outcome}
		for _, ev := range r.Events {
			ce := chromeEvent{
				Name: ev.Kind,
				Ts:   r.StartUS + ev.AtUS,
				Pid:  1,
				Tid:  tid,
				Args: args,
			}
			if ev.DurUS > 0 {
				ce.Ph, ce.Dur = "X", ev.DurUS
			} else {
				ce.Ph, ce.Scope = "i", "t"
			}
			events = append(events, ce)
		}
	}
	return writeChromeTrace(w, events)
}

// Export captures the recorder's full state for the campaign checkpoint.
// Only a quiescent capture (the checkpoint barrier) is guaranteed to be a
// consistent cut.
func (f *FlightRecorder) Export() FlightState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightState{
		Budget:             f.cfg.Budget,
		SampleN:            f.cfg.SampleN,
		Deterministic:      f.cfg.DeterministicOnly,
		Finished:           f.finished,
		EvictedInteresting: f.evictedInteresting,
		EvictedSampled:     f.evictedSampled,
		Interesting:        append([]TraceRecord(nil), f.interesting...),
		Sampled:            append([]TraceRecord(nil), f.sampled...),
	}
}

// Import overwrites the recorder with previously exported state. The
// sampling shape (budget, sample rate) must match this recorder's — a
// resume under a different policy would silently fork the retained set.
func (f *FlightRecorder) Import(st *FlightState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st.Budget != f.cfg.Budget || st.SampleN != f.cfg.SampleN {
		return fmt.Errorf("obs: flight state budget/sample %d/%d, recorder configured %d/%d",
			st.Budget, st.SampleN, f.cfg.Budget, f.cfg.SampleN)
	}
	f.cfg.DeterministicOnly = st.Deterministic
	f.finished = st.Finished
	f.evictedInteresting = st.EvictedInteresting
	f.evictedSampled = st.EvictedSampled
	f.interesting = append([]TraceRecord(nil), st.Interesting...)
	f.sampled = append([]TraceRecord(nil), st.Sampled...)
	return nil
}

// FlightFromState rebuilds a recorder directly from checkpointed state —
// the supervisor's crash-dump path, where no live recorder exists.
func FlightFromState(st *FlightState) *FlightRecorder {
	f := NewFlightRecorder(FlightConfig{
		Budget:            st.Budget,
		SampleN:           st.SampleN,
		DeterministicOnly: st.Deterministic,
	})
	// Import cannot fail: the config was just built from the state itself.
	_ = f.Import(st)
	return f
}
