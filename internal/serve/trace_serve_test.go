package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"backfi/internal/obs"
)

// TestBinaryRequestLegacyBytes hand-pins the untraced binary request
// layout byte for byte: the trace extension must be invisible when no
// trace rides the request, so pre-trace peers interoperate with zero
// wire change. A traced request is exactly the legacy bytes plus the
// 9-byte extension block.
func TestBinaryRequestLegacyBytes(t *testing.T) {
	req := Request{Op: OpDecode, Session: "tag-7", Payload: []byte{0xAA, 0xBB}, TimeoutMs: 300}
	got, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		binKindDecode,
		5, 't', 'a', 'g', '-', '7', // uvarint session len | session
		2, 0xAA, 0xBB, // uvarint payload len | payload
		0xAC, 0x02, // uvarint 300
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced request bytes changed:\n got % x\nwant % x", got, want)
	}

	req.Trace = 0x1122334455667788
	traced, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	wantExt := append(append([]byte{}, want...),
		binExtTrace,
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // u64 LE id
	)
	if !bytes.Equal(traced, wantExt) {
		t.Fatalf("traced request bytes:\n got % x\nwant % x", traced, wantExt)
	}
}

func TestBinaryRequestTraceRoundTrip(t *testing.T) {
	var names internTable
	for _, trace := range []uint64{0, 1, 0xDEADBEEFCAFE} {
		req := Request{Op: OpDecode, Session: "s", Payload: []byte("p"), Trace: trace}
		body, err := appendRequestBinary(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		// got starts dirty: the decoder must reset Trace on untraced
		// frames (the struct is reused across a connection's frames).
		got := Request{Trace: 0xFFFF}
		if err := decodeRequestBinary(body, &got, &names); err != nil {
			t.Fatalf("trace=%x: %v", trace, err)
		}
		if got.Trace != trace {
			t.Fatalf("trace round trip: got %x, want %x", got.Trace, trace)
		}
	}
}

func TestBinaryRequestExtensionMalformed(t *testing.T) {
	var names internTable
	base, err := appendRequestBinary(nil, &Request{Op: OpDecode, Session: "s", Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	// Unknown extension flag bits must be rejected, not skipped.
	if err := decodeRequestBinary(append(append([]byte{}, base...), 0x02), &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown ext flags: %v", err)
	}
	// Truncated trace id.
	if err := decodeRequestBinary(append(append([]byte{}, base...), binExtTrace, 1, 2, 3), &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated trace id: %v", err)
	}
	// Trailing junk after a complete extension.
	full := append(append([]byte{}, base...), binExtTrace)
	full = binary.LittleEndian.AppendUint64(full, 7)
	if err := decodeRequestBinary(append(full, 0xEE), &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("trailing bytes after extension: %v", err)
	}
	// The complete extension itself decodes.
	if err := decodeRequestBinary(full, &req, &names); err != nil || req.Trace != 7 {
		t.Fatalf("valid extension: err=%v trace=%x", err, req.Trace)
	}
}

// The zero-allocation steady-state contract extends to traced frames.
func TestBinaryCodecZeroAllocWithTrace(t *testing.T) {
	req := Request{Op: OpDecode, Session: "steady", Payload: bytes.Repeat([]byte{7}, 64), Trace: 0xABCDEF}
	body, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var names internTable
	var dec Request
	if err := decodeRequestBinary(body, &dec, &names); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() { dst, _ = appendRequestBinary(dst[:0], &req) }); n != 0 {
		t.Errorf("encode traced request: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = decodeRequestBinary(body, &dec, &names) }); n != 0 {
		t.Errorf("decode traced request: %v allocs/op, want 0", n)
	}
}

// TestProtocolDeterminismTracing pins the tentpole's central contract:
// a session's response stream is byte-identical with tracing disabled,
// fully enabled, or sampled — on either protocol, under 1 or 8 shards.
// Tracing observes; it must never feed back into decode results.
func TestProtocolDeterminismTracing(t *testing.T) {
	stream := func(shards int, proto string, tracer *obs.Tracer) []byte {
		srv := startCacheServer(t, Config{
			Shards: shards, SessionCache: true,
			Tracer: tracer,
			Flight: obs.NewFlightRecorder(0),
			SLO:    obs.NewSLO(obs.SLOConfig{}),
		})
		var out []byte
		for _, sess := range []string{"trc-a", "trc-b"} {
			c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: proto, Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				resp, err := c.Decode(sess, bytes.Repeat([]byte{byte(i + 1)}, 24))
				if err != nil {
					t.Fatalf("%s frame %d: %v", proto, i, err)
				}
				b, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b...)
				out = append(out, '\n')
			}
			c.Close()
		}
		return out
	}
	ref := stream(4, "json", nil)
	every := func(n int) *obs.Tracer {
		return obs.NewTracer(obs.TracerConfig{Seed: 7, SampleEvery: n})
	}
	for _, tc := range []struct {
		name   string
		shards int
		proto  string
		tracer *obs.Tracer
	}{
		{"json traced", 4, "json", every(1)},
		{"binary traced", 4, "binary", every(1)},
		{"binary sampled", 4, "binary", every(3)},
		{"json sampled", 4, "json", every(3)},
		{"shards=1 traced", 1, "binary", every(1)},
		{"shards=8 traced", 8, "binary", every(1)},
	} {
		got := stream(tc.shards, tc.proto, tc.tracer)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: response stream diverged from untraced reference", tc.name)
		}
		if _, spans, _ := tc.tracer.Stats(); spans == 0 {
			t.Errorf("%s: tracer recorded no spans — the variant did not actually trace", tc.name)
		}
	}
}

// TestEndToEndTraceSpans checks the full span picture of one traced
// frame: client and server share a tracer (as loadgen's self-serve mode
// does), so one trace id strings together the client send, the serve
// stages, and the decode pipeline stages.
func TestEndToEndTraceSpans(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Seed: 3})
	srv := startCacheServer(t, Config{Shards: 1, SessionCache: true, Tracer: tracer})
	c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode("e2e", bytes.Repeat([]byte{1}, 24)); err != nil {
		t.Fatal(err)
	}
	wantID := obs.TraceID(3, "e2e", 0)
	byName := map[string]int{}
	for _, ev := range tracer.Events() {
		if ev.Trace != wantID {
			t.Fatalf("span %q carries trace %x, want %x", ev.Name, ev.Trace, wantID)
		}
		byName[ev.Name]++
		if ev.Dur < 0 {
			t.Fatalf("span %q has negative duration %d", ev.Name, ev.Dur)
		}
	}
	for _, name := range []string{
		"client_send", "conn_read", "queue_wait", "batch", "decode", "resp_write", // serve stages
		"channel_sim", "decode_total", // link stages
		"channel_estimate", "timing_search", "mrc", "viterbi", // pipeline stages
	} {
		if byName[name] == 0 {
			t.Errorf("no %q span recorded; got %v", name, byName)
		}
	}
	// The decode stage must nest inside the client send: every server
	// span starts at or after the client span does.
	evs := tracer.Events()
	var send, decode *obs.TraceEvent
	for i := range evs {
		switch evs[i].Name {
		case "client_send":
			send = &evs[i]
		case "decode":
			decode = &evs[i]
		}
	}
	if send == nil || decode == nil {
		t.Fatal("missing client_send or decode span")
	}
	if decode.Start < send.Start || decode.Start+decode.Dur > send.Start+send.Dur+int64(time.Millisecond) {
		t.Errorf("decode span [%d +%d] not inside client_send [%d +%d]",
			decode.Start, decode.Dur, send.Start, send.Dur)
	}
}

// TestClientFlightEvents pins satellite (b)'s client half: a killed
// connection must leave a conn_broken event, and the next healed call a
// matching redial event.
func TestClientFlightEvents(t *testing.T) {
	flight := obs.NewFlightRecorder(0)
	srv := startCacheServer(t, Config{Shards: 1, SessionCache: true})
	c, err := DialClient(ClientConfig{
		Addr: srv.Addr(), Proto: "binary",
		MaxRedials: 3, RedialBase: time.Millisecond,
		Flight: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode("fl", bytes.Repeat([]byte{1}, 24)); err != nil {
		t.Fatal(err)
	}
	const kills = 3
	for k := 0; k < kills; k++ {
		c.BreakConn()
		if _, err := c.Decode("fl", bytes.Repeat([]byte{2}, 24)); err != nil {
			t.Fatalf("kill %d: decode after break: %v", k, err)
		}
	}
	if n := flight.Count(obs.FlightConnBroken); n != kills {
		t.Errorf("conn_broken events = %d, want %d", n, kills)
	}
	if n := flight.Count(obs.FlightRedial); n != kills {
		t.Errorf("redial events = %d, want %d", n, kills)
	}
	// Redial events name the session whose call healed the connection.
	for _, ev := range flight.Events() {
		if ev.Kind == obs.FlightRedial && ev.Session != "fl" {
			t.Errorf("redial event names session %q, want fl", ev.Session)
		}
	}
}

// TestBinaryRequestLegacyBytesMultiDecode extends the byte-for-byte
// pin to mdecode: an untraced multi-decode request must carry no trace
// extension and stay byte-identical to the pre-sampling layout, so
// fixing the head-sampling gap (mdecode now samples like decode) is
// invisible on the wire when tracing is off.
func TestBinaryRequestLegacyBytesMultiDecode(t *testing.T) {
	req := Request{Op: OpMultiDecode, Session: "g-1",
		Payloads: [][]byte{{0xAA, 0xBB}, {0xCC}}, TimeoutMs: 300}
	got, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		binKindMultiDecode,
		3, 'g', '-', '1', // uvarint session len | session
		2,             // uvarint payload count
		2, 0xAA, 0xBB, // payload 0
		1, 0xCC, // payload 1
		0xAC, 0x02, // uvarint 300
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced mdecode bytes changed:\n got % x\nwant % x", got, want)
	}
	req.Trace = 0x1122334455667788
	traced, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	wantExt := append(append([]byte{}, want...),
		binExtTrace,
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
	)
	if !bytes.Equal(traced, wantExt) {
		t.Fatalf("traced mdecode bytes:\n got % x\nwant % x", traced, wantExt)
	}
}

// TestMultiDecodeHeadSampling pins the satellite fix: the client
// head-samples mdecode frames exactly like decode frames — same
// per-session index, same deterministic every-Nth decision — so a
// multi-tag session's traces line up with a single-tag session's.
// Before the fix only OpDecode advanced the index and mdecode frames
// never carried a trace.
func TestMultiDecodeHeadSampling(t *testing.T) {
	t.Run("every-frame", func(t *testing.T) {
		tracer := obs.NewTracer(obs.TracerConfig{Seed: 5, SampleEvery: 1})
		srv := startCacheServer(t, Config{Shards: 1, Tracer: tracer})
		c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		group := [][]byte{bytes.Repeat([]byte{1}, 24), bytes.Repeat([]byte{2}, 24)}
		if _, err := c.MultiDecode("grp", group); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode("grp", bytes.Repeat([]byte{3}, 24)); err != nil {
			t.Fatal(err)
		}
		// mdecode consumed index 0, so the plain decode is index 1: the
		// two ops share one per-session counter.
		ids := map[uint64]bool{}
		for _, ev := range tracer.Events() {
			if ev.Name == "client_send" {
				ids[ev.Trace] = true
			}
		}
		want0, want1 := obs.TraceID(5, "grp", 0), obs.TraceID(5, "grp", 1)
		if !ids[want0] || !ids[want1] || len(ids) != 2 {
			t.Fatalf("client_send trace ids = %v, want {%x, %x}", ids, want0, want1)
		}
	})
	t.Run("sampled", func(t *testing.T) {
		tracer := obs.NewTracer(obs.TracerConfig{Seed: 5, SampleEvery: 3})
		srv := startCacheServer(t, Config{Shards: 1, Tracer: tracer})
		c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		payload := bytes.Repeat([]byte{9}, 24)
		for i := 0; i < 6; i++ { // alternate ops; indices 0..5
			if i%2 == 0 {
				if _, err := c.MultiDecode("mix", [][]byte{payload}); err != nil {
					t.Fatal(err)
				}
			} else if _, err := c.Decode("mix", payload); err != nil {
				t.Fatal(err)
			}
		}
		// The sampling decision is a pure function of (seed, session,
		// index): index i samples iff TraceID(seed, session, i) is 0 mod
		// SampleEvery. Both ops drew from one shared index sequence, so
		// the observed client_send ids must be exactly the sampled subset
		// of indices 0..5, each traced once — an index skipped or
		// double-counted by either op would shift the whole set.
		want := map[uint64]int{}
		for i := 0; i < 6; i++ {
			if id := obs.TraceID(5, "mix", i); id%3 == 0 {
				want[id] = 1
			}
		}
		ids := map[uint64]int{}
		for _, ev := range tracer.Events() {
			if ev.Name == "client_send" {
				ids[ev.Trace]++
			}
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("sampled client_send trace ids = %v, want %v", ids, want)
		}
	})
}

// spanProbe stands in for a connection: it notes whether the span was
// already in the tracer at the write that completed the frame.
type spanProbe struct {
	tr        *obs.Tracer
	n, total  int
	spanAtEnd bool
}

func (p *spanProbe) Write(b []byte) (int, error) {
	p.n += len(b)
	if p.n == p.total {
		_, spans, _ := p.tr.Stats()
		p.spanAtEnd = spans > 0
	}
	return len(b), nil
}

// TestWriteFrameEndsSpanBeforeLastByte pins the resp_write fix at the
// writer: whether the frame fits the buffer, fills it exactly, or is
// large enough that bufio passes it straight through, the span is
// recorded before the frame's last byte reaches the connection.
func TestWriteFrameEndsSpanBeforeLastByte(t *testing.T) {
	const bufSize = 16
	for _, size := range []int{1, 10, bufSize, bufSize + 1, 5 * bufSize} {
		tr := obs.NewTracer(obs.TracerConfig{Seed: 1})
		p := &spanProbe{tr: tr, total: size}
		sp := obs.NewStage("resp_write", nil).Start(tr.Head("w", 0))
		if err := writeFrame(bufio.NewWriterSize(p, bufSize), bytes.Repeat([]byte{7}, size), sp); err != nil {
			t.Fatal(err)
		}
		if p.n != size || !p.spanAtEnd {
			t.Errorf("%d-byte frame: wrote %d bytes, span recorded before the last byte: %v", size, p.n, p.spanAtEnd)
		}
	}
}

// TestServeStagesMatchTrace pins the one-call-per-stage contract on the
// serve path, for both codecs: each serve stage of a traced frame lands
// once in backfi_serve_job_stage_seconds and once in the trace, with
// the same duration, so the two sinks agree on every interval
// (queue_wait ends at the batch start in both).
func TestServeStagesMatchTrace(t *testing.T) {
	for _, proto := range []string{"json", "binary"} {
		t.Run(proto, func(t *testing.T) {
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(obs.TracerConfig{Seed: 3})
			srv := startCacheServer(t, Config{Shards: 1, SessionCache: true, Obs: reg, Tracer: tracer})
			c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Decode("stages", bytes.Repeat([]byte{1}, 24)); err != nil {
				t.Fatal(err)
			}
			spans := map[string][]int64{}
			for _, ev := range tracer.Events() {
				spans[ev.Name] = append(spans[ev.Name], ev.Dur)
			}
			snap := reg.Snapshot()
			for _, stage := range []string{"conn_read", "queue_wait", "batch", "decode", "resp_write"} {
				h, ok := snap.Histogram(obs.MetricServeJobStage, `{stage="`+stage+`"}`)
				if !ok || h.Count != 1 || len(spans[stage]) != 1 {
					t.Fatalf("%s: histogram present %v count %d, spans %v; want one of each", stage, ok, h.Count, spans[stage])
				}
				if want := time.Duration(spans[stage][0]).Seconds(); h.Sum != want {
					t.Errorf("%s: histogram %v s, span %v s", stage, h.Sum, want)
				}
			}
		})
	}
}
