package core

import (
	"bytes"
	"testing"

	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/tag"
)

func hotLinkConfig(seed int64) LinkConfig {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = seed
	cfg.SessionCache = true
	return cfg
}

func TestSessionCacheDeliversFrames(t *testing.T) {
	s, err := NewSession(hotLinkConfig(101), 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		payload := s.Link().RandomPayload(24)
		res, ok, err := s.Send(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !ok || !res.PayloadOK || !bytes.Equal(res.Decode.Payload, payload) {
			t.Fatalf("frame %d not delivered on the hot path", i)
		}
	}
	if s.Stats.FramesDelivered != 10 {
		t.Fatalf("delivered %d/10 frames", s.Stats.FramesDelivered)
	}
}

func TestSessionCacheDeterministic(t *testing.T) {
	run := func() []*PacketResult {
		s, err := NewSession(hotLinkConfig(102), 0.95, 2)
		if err != nil {
			t.Fatal(err)
		}
		var out []*PacketResult
		for i := 0; i < 6; i++ {
			res, _, err := s.Send(s.Link().RandomPayload(24))
			if err != nil {
				t.Fatal(err)
			}
			// A frame whose every ARQ attempt hit a wake failure yields a
			// nil result; determinism then requires the other run to agree.
			if res != nil {
				// Copy scratch-backed slices before the next frame reuses
				// them.
				res.Decode.SymbolEstimates = append([]complex128(nil), res.Decode.SymbolEstimates...)
			}
			out = append(out, res)
		}
		return out
	}
	a, b := run(), run()
	delivered := 0
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("frame %d: delivery outcome differs across identical runs", i)
		}
		if a[i] == nil {
			continue
		}
		delivered++
		if !bytes.Equal(a[i].Decode.Payload, b[i].Decode.Payload) {
			t.Fatalf("frame %d: payloads differ across identical runs", i)
		}
		if a[i].MeasuredSNRdB != b[i].MeasuredSNRdB || a[i].RawBitErrors != b[i].RawBitErrors {
			t.Fatalf("frame %d: diagnostics differ across identical runs", i)
		}
		if len(a[i].Decode.SymbolEstimates) != len(b[i].Decode.SymbolEstimates) {
			t.Fatalf("frame %d: estimate counts differ", i)
		}
		for j := range a[i].Decode.SymbolEstimates {
			if a[i].Decode.SymbolEstimates[j] != b[i].Decode.SymbolEstimates[j] {
				t.Fatalf("frame %d symbol %d not bit-identical", i, j)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no frame delivered; seed gives the test nothing to compare")
	}
}

func TestSessionCacheInvalidatedByTagConfig(t *testing.T) {
	s, err := NewSession(hotLinkConfig(103), 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Send(s.Link().RandomPayload(24)); err != nil || !ok {
		t.Fatalf("initial frame: ok=%v err=%v", ok, err)
	}
	fast := tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: tag.DefaultPreambleChips, ID: 1}
	if err := s.SetTagConfig(fast); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		payload := s.Link().RandomPayload(24)
		res, ok, err := s.Send(payload)
		if err != nil {
			t.Fatalf("post-switch frame %d: %v", i, err)
		}
		if !ok || !bytes.Equal(res.Decode.Payload, payload) {
			t.Fatalf("post-switch frame %d not delivered", i)
		}
	}
}

func TestSessionCacheFaultProfileForcesLegacyPath(t *testing.T) {
	cfg := hotLinkConfig(104)
	cfg.Faults = &fault.Profile{ACKDropProb: 0.5}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.RunPacket(link.RandomPayload(24)); err != nil {
		t.Fatal(err)
	}
	if link.hot != nil {
		t.Fatal("faulted link must not build hot-path state")
	}
	// Clearing the profile re-enables the hot path on the same link.
	if err := link.SetFaultProfile(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := link.RunPacket(link.RandomPayload(24)); err != nil {
		t.Fatal(err)
	}
	if link.hot == nil {
		t.Fatal("unfaulted link should use the session cache")
	}
}

func TestSessionCacheOffKeepsLegacyPath(t *testing.T) {
	cfg := hotLinkConfig(105)
	cfg.SessionCache = false
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.RunPacket(link.RandomPayload(24)); err != nil {
		t.Fatal(err)
	}
	if link.hot != nil {
		t.Fatal("SessionCache=false must never touch hot-path state")
	}
}

func BenchmarkRunPacketSessionCache(b *testing.B) {
	link, err := NewLink(hotLinkConfig(106))
	if err != nil {
		b.Fatal(err)
	}
	payload := link.RandomPayload(24)
	if _, err := link.RunPacket(payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.RunPacket(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunPacketSessionCacheFastTag(b *testing.B) {
	cfg := hotLinkConfig(107)
	cfg.Tag = tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: tag.DefaultPreambleChips, ID: 1}
	link, err := NewLink(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := link.RandomPayload(24)
	if _, err := link.RunPacket(payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.RunPacket(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathRebuildMatchesFreshLink: after SetTagConfig forces a
// cache rebuild, the hot path must decode exactly as a link that ran
// the new configuration from the start — no spectra, Gram factor or
// scratch derived from the old excitation may leak into the new one.
// Migratable mode makes both links' draws a function of (seed,
// attempt) alone, so the two are comparable frame for frame.
func TestHotPathRebuildMatchesFreshLink(t *testing.T) {
	fast := tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: tag.DefaultPreambleChips, ID: 1}
	cfg := hotLinkConfig(108)
	cfg.Migratable = true
	switched, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("backfi!"), 12)
	for n := 0; n < 3; n++ {
		switched.ReseedAttempt(n)
		if _, err := switched.RunPacket(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := switched.SetTagConfig(fast); err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Tag = fast
	fresh, err := NewLink(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for n := 3; n < 7; n++ {
		switched.ReseedAttempt(n)
		fresh.ReseedAttempt(n)
		a, errA := switched.RunPacket(payload)
		b, errB := fresh.RunPacket(payload)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("attempt %d: errors differ: %v vs %v", n, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.PayloadOK {
			delivered++
		}
		if a.PayloadOK != b.PayloadOK || !bytes.Equal(a.Decode.Payload, b.Decode.Payload) {
			t.Fatalf("attempt %d: payload outcome differs after the rebuild", n)
		}
		if a.MeasuredSNRdB != b.MeasuredSNRdB || a.SICResidualDBm != b.SICResidualDBm || a.RawBitErrors != b.RawBitErrors {
			t.Fatalf("attempt %d: diagnostics differ: SNR %v/%v residual %v/%v", n, a.MeasuredSNRdB, b.MeasuredSNRdB, a.SICResidualDBm, b.SICResidualDBm)
		}
		for i, v := range a.Decode.SymbolEstimates {
			if v != b.Decode.SymbolEstimates[i] {
				t.Fatalf("attempt %d symbol %d: %v after rebuild vs %v fresh", n, i, v, b.Decode.SymbolEstimates[i])
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no frame delivered; the comparison is vacuous")
	}
}
