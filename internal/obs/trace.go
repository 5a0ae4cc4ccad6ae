package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Per-frame distributed tracing (DESIGN.md §5h). The tracer is the
// same shape as the rest of this package: zero dependencies, nil-safe
// everywhere, lock-free on the record path, and inert when disabled —
// a zero TraceCtx never reads the clock, so the untraced hot path pays
// only a pointer compare per span site (the PR2 nil-overhead contract
// extends to tracing; see BenchmarkRunPacketNilTracer).
//
// Sampling is deterministic head sampling: whether a frame is traced —
// and the trace id it gets — is a pure function of (seed, session id,
// frame index). Two consequences the serve stack relies on:
//
//   - reproducibility: the same run samples the same frames, so a
//     trace captured in CI can be regenerated locally;
//   - distribution without negotiation: a client and server configured
//     with the same seed derive the same trace id for the same frame
//     independently, and a propagated id (Request.Trace on the wire)
//     lets both sides contribute spans to one timeline even when only
//     one end samples.
//
// Tracing never feeds back into computation: spans observe wall-clock
// only, responses carry no trace fields, and the decode byte stream is
// pinned identical with tracing off/on/sampled (TestProtocolDeterminism).

// TraceEvent is one completed span in the ring.
type TraceEvent struct {
	Trace uint64 `json:"trace"`
	Name  string `json:"name"`
	Start int64  `json:"start_unix_nano"`
	Dur   int64  `json:"dur_nano"`
}

// TracerConfig configures a Tracer. The zero value samples every frame
// into a default-capacity ring.
type TracerConfig struct {
	// Seed salts trace ids and the sampling decision. Same seed =>
	// same sampled set and same ids for the same (session, frame)s.
	Seed int64
	// SampleEvery is the head-sampling rate: 1 traces every frame, N
	// traces ~1/N of frames (deterministically — see Head). Values
	// <= 1 trace everything.
	SampleEvery int
	// Capacity bounds the completed-span ring; the oldest spans are
	// overwritten once it wraps. <= 0 means 4096.
	Capacity int
}

// Tracer records completed spans into a bounded lock-free ring.
// All methods are safe on a nil receiver (tracing disabled).
type Tracer struct {
	seed  int64
	every uint64

	ring    []atomic.Pointer[TraceEvent]
	cursor  atomic.Uint64
	sampled atomic.Int64
}

// NewTracer builds a tracer; see TracerConfig for knobs.
func NewTracer(cfg TracerConfig) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	every := uint64(1)
	if cfg.SampleEvery > 1 {
		every = uint64(cfg.SampleEvery)
	}
	return &Tracer{
		seed:  cfg.Seed,
		every: every,
		ring:  make([]atomic.Pointer[TraceEvent], capacity),
	}
}

// TraceID derives the deterministic trace id for frame index frame of
// session under seed: FNV-1a 64 over the seed bytes, the session id,
// and the frame index. The result is never zero (zero means "no
// trace" on the wire and in TraceCtx).
func TraceID(seed int64, session string, frame int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(seed)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= prime64
		v >>= 8
	}
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= prime64
	}
	f := uint64(frame)
	for i := 0; i < 8; i++ {
		h ^= f & 0xFF
		h *= prime64
		f >>= 8
	}
	if h == 0 {
		h = offset64
	}
	return h
}

// Head makes the head-sampling decision for frame index frame of
// session: a live TraceCtx when the frame is sampled, the zero (inert)
// TraceCtx otherwise. Pure function of (tracer seed, session, frame).
func (t *Tracer) Head(session string, frame int) TraceCtx {
	if t == nil {
		return TraceCtx{}
	}
	id := TraceID(t.seed, session, frame)
	if t.every > 1 && id%t.every != 0 {
		return TraceCtx{}
	}
	t.sampled.Add(1)
	return TraceCtx{t: t, id: id}
}

// Join adopts a trace id propagated from a peer (e.g. Request.Trace):
// the frame is traced here regardless of the local sampling decision,
// under the peer's id, so both sides land on one timeline. A zero id
// or nil tracer yields the inert TraceCtx.
func (t *Tracer) Join(id uint64) TraceCtx {
	if t == nil || id == 0 {
		return TraceCtx{}
	}
	return TraceCtx{t: t, id: id}
}

// Stats reports sampling-decision hits, spans recorded, and spans
// overwritten by ring wrap.
func (t *Tracer) Stats() (sampled, spans, dropped int64) {
	if t == nil {
		return 0, 0, 0
	}
	n := int64(t.cursor.Load())
	d := n - int64(len(t.ring))
	if d < 0 {
		d = 0
	}
	return t.sampled.Load(), n, d
}

func (t *Tracer) record(ev TraceEvent) {
	i := t.cursor.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(&ev)
}

// Events snapshots the ring, ordered by start time (ties broken by
// trace id then name so the order is deterministic).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	out := make([]TraceEvent, 0, len(t.ring))
	for i := range t.ring {
		if p := t.ring[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event; ts/dur in microseconds). Load the output at
// chrome://tracing or https://ui.perfetto.dev.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace exports the ring as Chrome trace-event JSON. Spans
// of one trace share a tid, so each traced frame renders as its own
// row. Nil-safe: a nil tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(evs))}
	for _, ev := range evs {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: ev.Name,
			Cat:  "backfi",
			Ph:   "X",
			TS:   float64(ev.Start) / 1e3,
			Dur:  float64(ev.Dur) / 1e3,
			PID:  1,
			// Chrome treats tid as a small int; fold the id but keep
			// the full value in args for correlation.
			TID:  ev.Trace % 1_000_000,
			Args: map[string]string{"trace": hex64(ev.Trace)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func hex64(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xF]
		v >>= 4
	}
	return string(b[:])
}

// TraceCtx is the per-frame trace handle threaded through the decode
// pipeline; Stage.Start and Stage.Record take it to add a span. The
// zero value is the disabled path: Enabled is false, recording is a
// nil compare, and no stage reads the clock on its behalf. It is a 2-word
// value, copied freely.
type TraceCtx struct {
	t  *Tracer
	id uint64
}

// Enabled reports whether spans recorded on this ctx go anywhere.
func (c TraceCtx) Enabled() bool { return c.t != nil }

// ID is the trace id (0 when disabled) — the value propagated on the
// wire as Request.Trace.
func (c TraceCtx) ID() uint64 {
	if c.t == nil {
		return 0
	}
	return c.id
}

// record logs a completed span; Stage is its only caller outside
// tests, so every span comes from one stage call.
func (c TraceCtx) record(name string, start time.Time, d time.Duration) {
	if c.t == nil {
		return
	}
	c.t.record(TraceEvent{Trace: c.id, Name: name, Start: start.UnixNano(), Dur: int64(d)})
}
