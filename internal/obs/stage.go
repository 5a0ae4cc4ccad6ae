package obs

import "time"

// Stage is one named pipeline stage with its duration histogram,
// resolved once when the owning component is built. It is the single
// instrumentation call per stage: one Start/End pair (or one Record)
// feeds the same measured duration to the histogram and, when the
// frame is sampled, to the frame's trace as a span named after the
// stage. The zero Stage (and any Stage built on a nil histogram) is
// valid; with no histogram and a zero TraceCtx, Start never reads the
// clock and End is a pair of nil compares.
type Stage struct {
	name string
	h    *Histogram
}

// NewStage binds a stage name to its histogram (nil = trace-only).
func NewStage(name string, h *Histogram) Stage { return Stage{name: name, h: h} }

// Stage resolves a decoder pipeline stage: the name becomes both the
// span name and the stage label of MetricStageDuration. A nil registry
// yields a trace-only stage.
func (r *Registry) Stage(name string) Stage {
	return NewStage(name, r.Histogram(MetricStageDuration, HelpStageDuration, DurationBuckets, "stage", name))
}

// StageSpan is one open run of a Stage; End records it.
type StageSpan struct {
	s     Stage
	c     TraceCtx
	start time.Time
}

// Start opens a run of the stage on trace context c. The clock is read
// once, and only when the histogram or the trace is live.
func (s Stage) Start(c TraceCtx) StageSpan {
	if s.h == nil && c.t == nil {
		return StageSpan{}
	}
	return StageSpan{s: s, c: c, start: time.Now()}
}

// End records the elapsed time into both sinks. Safe on the zero span;
// the live path is out of line so the disabled one inlines.
func (sp StageSpan) End() {
	if sp.s.h != nil || sp.c.t != nil {
		sp.end()
	}
}

func (sp StageSpan) end() { sp.s.Record(sp.c, sp.start, time.Since(sp.start)) }

// Record logs a run of the stage after the fact — for intervals that
// ended before the frame's trace context was known (a connection read
// precedes the request's trace id; queue wait precedes head sampling).
func (s Stage) Record(c TraceCtx, start time.Time, d time.Duration) {
	s.h.Observe(d.Seconds())
	c.record(s.name, start, d)
}
