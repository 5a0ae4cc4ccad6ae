package obs

import (
	"testing"
	"time"
)

// The disabled path: a zero stage on a zero ctx reads no clock (the
// open span carries no start time) and allocates nothing.
func TestStageZeroInert(t *testing.T) {
	var st Stage
	var c TraceCtx
	if sp := st.Start(c); !sp.start.IsZero() {
		t.Fatal("zero stage on a zero ctx read the clock")
	}
	var nilReg *Registry
	if sp := nilReg.Stage("s").Start(c); !sp.start.IsZero() {
		t.Fatal("nil-registry stage on a zero ctx read the clock")
	}
	if n := testing.AllocsPerRun(100, func() {
		st.Start(c).End()
		st.Record(c, time.Time{}, time.Millisecond)
	}); n != 0 {
		t.Fatalf("disabled stage: %v allocs/op, want 0", n)
	}
}

// Both sinks live: one Start/End pair lands the same duration in the
// histogram and in the trace span.
func TestStageFeedsBothSinks(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(TracerConfig{Seed: 1})
	c := tr.Head("sess", 0)
	st := r.Stage("mrc")
	sp := st.Start(c)
	time.Sleep(time.Millisecond)
	sp.End()
	h := r.Histogram(MetricStageDuration, HelpStageDuration, DurationBuckets, "stage", "mrc")
	evs := tr.Events()
	if h.Count() != 1 || len(evs) != 1 {
		t.Fatalf("histogram count %d, trace events %d; want 1 and 1", h.Count(), len(evs))
	}
	ev := evs[0]
	if ev.Name != "mrc" || ev.Trace != c.ID() {
		t.Fatalf("span %+v, want name mrc on trace %x", ev, c.ID())
	}
	if ev.Dur < int64(time.Millisecond) || h.Sum() != time.Duration(ev.Dur).Seconds() {
		t.Fatalf("histogram sum %v s vs span %v: want one shared duration ≥ 1 ms", h.Sum(), time.Duration(ev.Dur))
	}
}

// Record: a retroactive interval lands in both sinks with the given
// start and duration.
func TestStageRecordRetroactive(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(TracerConfig{Seed: 1})
	c := tr.Head("sess", 0)
	h := r.Histogram("wait", "h", LatencyBuckets)
	start := time.Unix(5, 0)
	NewStage("queue_wait", h).Record(c, start, 3*time.Millisecond)
	if h.Count() != 1 || h.Sum() != 3e-3 {
		t.Fatalf("histogram count %d sum %v, want 1 and 0.003", h.Count(), h.Sum())
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "queue_wait" || evs[0].Start != start.UnixNano() || evs[0].Dur != int64(3*time.Millisecond) {
		t.Fatalf("retroactive span %+v", evs)
	}
	// A trace-only stage on a zero ctx records nowhere and must not panic.
	NewStage("queue_wait", nil).Record(TraceCtx{}, start, time.Millisecond)
}
