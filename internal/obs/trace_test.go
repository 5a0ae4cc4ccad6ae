package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// The sampling decision and the trace id must be pure functions of
// (seed, session, frame): same inputs, same outputs, across tracer
// instances — this is what lets a client and server agree on sampled
// frames without negotiating, and lets CI traces be regenerated
// locally.
func TestTraceIDDeterministic(t *testing.T) {
	a := TraceID(42, "sess-7", 1234)
	b := TraceID(42, "sess-7", 1234)
	if a != b {
		t.Fatalf("TraceID not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("TraceID returned the zero (no-trace) id")
	}
	if TraceID(42, "sess-7", 1235) == a {
		t.Fatal("frame index does not perturb the id")
	}
	if TraceID(42, "sess-8", 1234) == a {
		t.Fatal("session id does not perturb the id")
	}
	if TraceID(43, "sess-7", 1234) == a {
		t.Fatal("seed does not perturb the id")
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	mk := func() *Tracer { return NewTracer(TracerConfig{Seed: 9, SampleEvery: 8}) }
	t1, t2 := mk(), mk()
	var sampled, total int
	for frame := 0; frame < 4096; frame++ {
		c1 := t1.Head("sess", frame)
		c2 := t2.Head("sess", frame)
		if c1.Enabled() != c2.Enabled() || c1.ID() != c2.ID() {
			t.Fatalf("frame %d: tracers disagree (%v/%x vs %v/%x)",
				frame, c1.Enabled(), c1.ID(), c2.Enabled(), c2.ID())
		}
		total++
		if c1.Enabled() {
			sampled++
		}
	}
	// id % 8 == 0 over well-mixed FNV ids: expect ~1/8, loosely bounded.
	if sampled < total/16 || sampled > total/4 {
		t.Fatalf("SampleEvery=8 sampled %d of %d frames", sampled, total)
	}
	// SampleEvery <= 1 traces everything.
	all := NewTracer(TracerConfig{})
	for frame := 0; frame < 64; frame++ {
		if !all.Head("s", frame).Enabled() {
			t.Fatalf("SampleEvery=0 tracer skipped frame %d", frame)
		}
	}
}

func TestTraceZeroCtxInert(t *testing.T) {
	var c TraceCtx
	if c.Enabled() || c.ID() != 0 {
		t.Fatal("zero ctx not inert")
	}
	c.record("y", time.Time{}, 0)
	var nilT *Tracer
	if nilT.Head("s", 0).Enabled() || nilT.Join(7).Enabled() {
		t.Fatal("nil tracer produced a live ctx")
	}
	if evs := nilT.Events(); evs != nil {
		t.Fatalf("nil tracer has events: %v", evs)
	}
	if s, sp, d := nilT.Stats(); s != 0 || sp != 0 || d != 0 {
		t.Fatal("nil tracer has stats")
	}
	if err := nilT.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil tracer chrome export: %v", err)
	}
}

func TestTraceJoin(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1 << 30}) // samples nothing by head
	if tr.Join(0).Enabled() {
		t.Fatal("zero id joined")
	}
	c := tr.Join(0xDEAD)
	if !c.Enabled() || c.ID() != 0xDEAD {
		t.Fatalf("join: got enabled=%v id=%x", c.Enabled(), c.ID())
	}
	NewStage("joined_span", nil).Start(c).End()
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Trace != 0xDEAD || evs[0].Name != "joined_span" {
		t.Fatalf("joined span not recorded: %+v", evs)
	}
}

func TestTraceRingWrap(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8})
	c := tr.Head("s", 0)
	for i := 0; i < 20; i++ {
		c.record("span", time.Unix(0, int64(i)), time.Nanosecond)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	// The survivors are the newest 12..19 (ordered by start).
	if evs[0].Start != 12 || evs[len(evs)-1].Start != 19 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", evs[0].Start, evs[len(evs)-1].Start)
	}
	if _, spans, dropped := tr.Stats(); spans != 20 || dropped != 12 {
		t.Fatalf("stats: spans=%d dropped=%d, want 20/12", spans, dropped)
	}
}

func TestTraceConcurrentRecord(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := tr.Head("sess", g)
			for i := 0; i < 100; i++ {
				NewStage("work", nil).Start(c).End()
			}
		}(g)
	}
	wg.Wait()
	if _, spans, _ := tr.Stats(); spans != 800 {
		t.Fatalf("recorded %d spans, want 800", spans)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{Seed: 1})
	c := tr.Head("sess", 0)
	c.record("decode", time.Unix(1, 500), 2*time.Microsecond)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			TID  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "decode" || ev.Ph != "X" {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.Dur != 2 { // 2µs
		t.Fatalf("dur = %v µs, want 2", ev.Dur)
	}
	if ev.TID != c.ID()%1_000_000 {
		t.Fatalf("tid %d does not fold trace id %x", ev.TID, c.ID())
	}
	if got := ev.Args["trace"]; got != hex64(c.ID()) || len(got) != 16 ||
		strings.ToLower(got) != got {
		t.Fatalf("args.trace = %q, want %q", got, hex64(c.ID()))
	}
}
