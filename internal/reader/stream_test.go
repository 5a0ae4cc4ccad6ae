package reader

import (
	"bytes"
	"math"
	"math/cmplx"
	"reflect"
	"sort"
	"strings"
	"testing"

	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

func mustStream(t *testing.T, rd *Reader) *Stream {
	t.Helper()
	s, err := rd.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamDecodeMatchesReader(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  tag.Config
		seed int64
	}{
		{"qpsk", qpskCfg(), 41},
		{"psk16-fast", tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 2}, 42},
		{"bpsk-slow", tag.Config{Mod: tag.BPSK, Coding: fec.Rate12, SymbolRateHz: 500e3, PreambleChips: 32, ID: 2}, 43},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := buildScene(t, tc.seed, tc.cfg, 40, -65)
			rd := mustNew(DefaultConfig())
			want, err := rd.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := mustStream(t, rd)
			got, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.FrameOK || !want.FrameOK {
				t.Fatalf("frame OK: stream %v, reader %v", got.FrameOK, want.FrameOK)
			}
			if !bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.Payload, sc.payload) {
				t.Fatal("payload differs between stream and reader decode")
			}
			if got.TimingOffset != want.TimingOffset {
				t.Fatalf("timing offset: stream %d, reader %d", got.TimingOffset, want.TimingOffset)
			}
			// The stream's symbol estimates cover exactly the frame; the
			// legacy decoder also estimates the post-frame silence. Over
			// the shared prefix the two pipelines differ only by normal-
			// equation summation order.
			if len(got.SymbolEstimates) > len(want.SymbolEstimates) {
				t.Fatalf("stream produced %d estimates, reader %d", len(got.SymbolEstimates), len(want.SymbolEstimates))
			}
			for i, g := range got.SymbolEstimates {
				if d := cmplx.Abs(g - want.SymbolEstimates[i]); d > 1e-3 {
					t.Fatalf("symbol %d: stream %v vs reader %v (|Δ|=%g)", i, g, want.SymbolEstimates[i], d)
				}
			}
		})
	}
}

func TestStreamDecodeDeterministicAcrossReuse(t *testing.T) {
	// The same stream instance must produce identical results for the
	// same input regardless of what it decoded before — scratch reuse
	// must never leak state between frames.
	scA := buildScene(t, 51, qpskCfg(), 40, -65)
	scB := buildScene(t, 52, qpskCfg(), 24, -60)
	rd := mustNew(DefaultConfig())

	fresh := mustStream(t, rd)
	refA, err := fresh.Decode(scA.x, scA.x, scA.y, scA.packetStart, scA.packetLen, scA.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	refEsts := append([]complex128(nil), refA.SymbolEstimates...)

	reused := mustStream(t, rd)
	if _, err := reused.Decode(scB.x, scB.x, scB.y, scB.packetStart, scB.packetLen, scB.tcfg); err != nil {
		t.Fatal(err)
	}
	again, err := reused.Decode(scA.x, scA.x, scA.y, scA.packetStart, scA.packetLen, scA.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Payload, refA.Payload) || again.FrameOK != refA.FrameOK {
		t.Fatal("reused stream decoded a different payload")
	}
	if len(again.SymbolEstimates) != len(refEsts) {
		t.Fatalf("estimate count %d vs %d", len(again.SymbolEstimates), len(refEsts))
	}
	for i := range refEsts {
		if again.SymbolEstimates[i] != refEsts[i] {
			t.Fatalf("symbol %d not bit-identical across stream reuse", i)
		}
	}
	if again.SNRdB != refA.SNRdB || again.PreambleCorr != refA.PreambleCorr {
		t.Fatal("scalar results not bit-identical across stream reuse")
	}
}

func TestStreamDecodeLowSNRFailsGracefully(t *testing.T) {
	sc := buildScene(t, 53, qpskCfg(), 80, -145)
	rd := mustNew(DefaultConfig())
	st := mustStream(t, rd)
	res, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, sc.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameOK {
		t.Fatal("buried-in-noise frame must not validate")
	}
	if res.Payload != nil {
		t.Fatal("failed frame must carry no payload")
	}
}

func TestStreamDecodeArgumentErrors(t *testing.T) {
	sc := buildScene(t, 54, qpskCfg(), 16, -60)
	rd := mustNew(DefaultConfig())
	st := mustStream(t, rd)
	if _, err := st.Decode(sc.x, sc.x, sc.y[:len(sc.y)-1], sc.packetStart, sc.packetLen, sc.tcfg); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, len(sc.x), sc.tcfg); err == nil {
		t.Fatal("want out-of-range packet error")
	}
	bad := sc.tcfg
	bad.SymbolRateHz = 0
	if _, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, bad); err == nil {
		t.Fatal("want tag-config validation error")
	}
}

// TestStageParity pins the single-instrumentation contract: the legacy
// decoder and the streaming decoder time the same stages, and each
// stage lands under the same name in backfi_stage_duration_seconds and
// in the frame's trace.
func TestStageParity(t *testing.T) {
	sc := buildScene(t, 41, qpskCfg(), 40, -65)
	stages := func(stream bool) (hist, spans []string) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(obs.TracerConfig{Seed: 1})
		cfg := DefaultConfig()
		cfg.Obs = reg
		rd := mustNew(cfg)
		rd.SetTrace(tr.Head("parity", 0))
		decode := rd.Decode
		if stream {
			decode = mustStream(t, rd).Decode
		}
		if res, err := decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, sc.tcfg); err != nil || !res.FrameOK {
			t.Fatalf("stream=%v: decode failed: %v", stream, err)
		}
		snap := reg.Snapshot()
		for _, h := range snap.Histograms {
			if h.Name == obs.MetricStageDuration && h.Count > 0 {
				hist = append(hist, strings.TrimSuffix(strings.TrimPrefix(h.Labels, `{stage="`), `"}`))
			}
		}
		seen := map[string]bool{}
		for _, ev := range tr.Events() {
			if !seen[ev.Name] {
				seen[ev.Name] = true
				spans = append(spans, ev.Name)
			}
		}
		sort.Strings(hist)
		sort.Strings(spans)
		return hist, spans
	}
	legacyHist, legacySpans := stages(false)
	streamHist, streamSpans := stages(true)
	want := []string{"channel_estimate", "mrc", "sic_analog_train", "sic_cancel", "sic_digital_train", "sic_train", "timing_search", "viterbi"}
	for name, got := range map[string][]string{
		"legacy histogram": legacyHist, "legacy trace": legacySpans,
		"stream histogram": streamHist, "stream trace": streamSpans,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s stages = %v, want %v", name, got, want)
		}
	}
}

// sameResult reports the first field where a and b differ bit for bit
// ("" when none does); NaNs compare by their bits.
func sameResult(a, b *Result) string {
	fbits := func(v float64) uint64 { return math.Float64bits(v) }
	cbits := func(x, y []complex128) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if fbits(real(x[i])) != fbits(real(y[i])) || fbits(imag(x[i])) != fbits(imag(y[i])) {
				return false
			}
		}
		return true
	}
	switch {
	case a.FrameOK != b.FrameOK || !bytes.Equal(a.Payload, b.Payload):
		return "payload"
	case !cbits(a.SymbolEstimates, b.SymbolEstimates):
		return "symbol estimates"
	case !cbits(a.Hfb, b.Hfb):
		return "channel estimate"
	case fbits(a.SNRdB) != fbits(b.SNRdB) || fbits(a.PreambleCorr) != fbits(b.PreambleCorr):
		return "SNR/preamble correlation"
	case a.TimingOffset != b.TimingOffset || a.ViterbiCorrectedBits != b.ViterbiCorrectedBits:
		return "timing/corrected bits"
	case a.SIC != b.SIC:
		return "SIC report"
	}
	return ""
}

// cloneResult copies the scratch-backed slices out of r.
func cloneResult(r *Result) *Result {
	c := *r
	c.SymbolEstimates = append([]complex128(nil), r.SymbolEstimates...)
	c.Hfb = append([]complex128(nil), r.Hfb...)
	return &c
}

// TestStreamSkipsUnreadSilentSamples: the stream cancels and filters
// only from the earliest sample timing search or the channel estimate
// can read. With every sample of its clean/reference buffers NaN
// before the call, a decode must equal the one on fresh buffers bit
// for bit, so no stage reads a sample the windows do not write.
func TestStreamSkipsUnreadSilentSamples(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   *scene
	}{
		{"on-time", buildSceneWithOffset(t, 61, qpskCfg(), 40, 0)},
		{"late", buildSceneWithOffset(t, 62, qpskCfg(), 40, 12)},
		{"early", buildSceneWithOffset(t, 63, qpskCfg(), 40, -8)},
		{"psk16-fast", buildScene(t, 64, tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 2}, 40, -65)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			rd := mustNew(DefaultConfig())
			want, err := mustStream(t, rd).Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, sc.tcfg)
			if err != nil {
				t.Fatal(err)
			}
			st := mustStream(t, rd)
			for pass := 0; pass < 2; pass++ {
				nan := complex(math.NaN(), math.NaN())
				for i := range st.clean {
					st.clean[i] = nan
				}
				for i := range st.ref {
					st.ref[i] = nan
				}
				got, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, sc.tcfg)
				if err != nil {
					t.Fatal(err)
				}
				if pass == 0 {
					continue // first pass only sizes the buffers
				}
				if d := sameResult(got, want); d != "" {
					t.Fatalf("poisoned decode differs in %s (frame ok %v vs %v, timing %d vs %d)",
						d, got.FrameOK, want.FrameOK, got.TimingOffset, want.TimingOffset)
				}
			}
			if !want.FrameOK {
				t.Fatal("scene does not decode; the test compares nothing")
			}
		})
	}
}

// TestStreamDecodeWithMatchesDecode: a caller-owned memoizing
// excitation decodes frame after frame bit-identically to the slice
// API's per-call spectra and factors.
func TestStreamDecodeWithMatchesDecode(t *testing.T) {
	rd := mustNew(DefaultConfig())
	sicCfg := DefaultConfig().SIC
	for _, seed := range []int64{71, 72} {
		sc := buildScene(t, seed, qpskCfg(), 40, -65)
		exc := sic.NewExcitation(dsp.NewOLSGrid(max(sicCfg.AnalogTaps, sicCfg.DigitalTaps)), sc.x, sc.x)
		memo, per := mustStream(t, rd), mustStream(t, rd)
		for frame := 0; frame < 3; frame++ {
			got, err := memo.DecodeWith(exc, sc.y, sc.packetStart, sc.packetLen, sc.tcfg)
			if err != nil {
				t.Fatal(err)
			}
			got = cloneResult(got)
			want, err := per.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, sc.tcfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameResult(got, want); d != "" {
				t.Fatalf("seed %d frame %d: DecodeWith differs from Decode in %s", seed, frame, d)
			}
		}
	}
}
