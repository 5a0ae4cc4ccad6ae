package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/linalg"
	"backfi/internal/reader"
	"backfi/internal/sic"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// layerCase is the link configuration the per-layer captures use: the
// workload's tag, distance and payload size.
type layerCase struct {
	link    core.LinkConfig
	payload int
	stream  bool // the workload decodes through reader.Stream
	seed    int64
}

func (s serveSpec) layerCase(g gen) layerCase {
	return layerCase{link: s.link(), payload: s.payload, stream: s.cache, seed: mix(uint64(g.seed), hashString("layers"))}
}

// layerReps is how many times each layer call is timed; medians are
// reported.
const layerReps = 15

// windowSlack mirrors the hot path's processing window past the frame.
const windowSlack = 64

// capture is one AP receive buffer built from public channel, tag and
// wifi calls, the way a link exchange builds it.
type capture struct {
	x, xAir, y      []complex128
	refl            []complex128 // tag reflection z·m over the whole capture
	packetStart, hi int
	packetLen       int
	tcfg            tag.Config
	scen            *channel.Scenario
}

// excitation builds the AP's transmission: CTS-to-self, the tag's wake
// preamble, then nppdu data PPDUs. It returns the samples and where
// the excitation packet begins.
func excitation(rng *rand.Rand, link core.LinkConfig, txPowerW float64, tg *tag.Tag, nppdu int) ([]complex128, int, error) {
	rate, err := wifi.RateByMbps(link.WiFiMbps)
	if err != nil {
		return nil, 0, err
	}
	basic, err := wifi.RateByMbps(6)
	if err != nil {
		return nil, 0, err
	}
	amp := complex(math.Sqrt(txPowerW), 0)
	ap := wifi.MACAddr{0x02, 0, 0, 0xba, 0xcf, 0x01}
	sta := wifi.MACAddr{0x02, 0, 0, 0xc1, 0x1e, 0x42}
	cts, err := wifi.BuildCTSToSelf(ap, 16+nppdu*int(wifi.AirtimeSeconds(link.WiFiPSDUBytes, rate)*1e6))
	if err != nil {
		return nil, 0, err
	}
	ctsWave, err := wifi.Transmit(cts, basic, wifi.DefaultScramblerSeed)
	if err != nil {
		return nil, 0, err
	}
	x := append(dsp.Scale(ctsWave, amp), tag.WakeWaveform(tg.WakeSeq(), math.Sqrt(txPowerW))...)
	start := len(x)
	for i := 0; i < nppdu; i++ {
		msdu := make([]byte, link.WiFiPSDUBytes-28)
		rng.Read(msdu)
		mpdu, err := wifi.BuildDataMPDU(wifi.MPDUHeader{Addr1: sta, Addr2: ap, Addr3: ap, Seq: i & 0xfff}, msdu)
		if err != nil {
			return nil, 0, err
		}
		wave, err := wifi.Transmit(mpdu, rate, wifi.DefaultScramblerSeed)
		if err != nil {
			return nil, 0, err
		}
		x = append(x, dsp.Scale(wave, amp)...)
	}
	return x, start, nil
}

// frameSamples is how many samples past the packet start a frame of n
// payload bytes occupies.
func frameSamples(tcfg tag.Config, n int) int {
	return tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(n, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol()
}

func nppduFor(link core.LinkConfig, need int) (int, error) {
	rate, err := wifi.RateByMbps(link.WiFiMbps)
	if err != nil {
		return 0, err
	}
	ppdu := wifi.PPDULen(link.WiFiPSDUBytes, rate)
	return max(1, (need+ppdu-1)/ppdu), nil
}

// newCapture realizes a placement from link (its seed drives the
// scenario) and builds one capture carrying payload.
func newCapture(link core.LinkConfig, rng *rand.Rand, payload []byte) (*capture, error) {
	l, err := core.NewLink(link)
	if err != nil {
		return nil, err
	}
	need := frameSamples(l.Tag.Cfg, len(payload))
	nppdu, err := nppduFor(link, need)
	if err != nil {
		return nil, err
	}
	x, start, err := excitation(rng, link, l.Scenario.TxPowerW(), l.Tag, nppdu)
	if err != nil {
		return nil, err
	}
	c := &capture{x: x, packetStart: start, packetLen: len(x) - start, tcfg: l.Tag.Cfg, scen: l.Scenario}
	c.hi = min(len(x), start+need+l.Tag.Cfg.SamplesPerSymbol()+windowSlack)
	c.xAir = l.Scenario.Distortion.Apply(x)
	m, _, err := l.Tag.ModulationSequence(c.packetLen, payload)
	if err != nil {
		return nil, err
	}
	c.refl = tagReflection(l.Scenario, c.xAir, m, start)
	c.y = l.Scenario.Noise.Add(dsp.Add(l.Scenario.HEnv.Apply(c.xAir), l.Scenario.HB.Apply(c.refl)))
	return c, nil
}

// tagReflection is the tag's backscatter of the forward signal.
func tagReflection(sc *channel.Scenario, xAir, m []complex128, start int) []complex128 {
	full := make([]complex128, len(xAir))
	copy(full[start:], m)
	return tag.Backscatter(sc.HF.Apply(xAir), full)
}

// jointCapture puts two tags (ids 1 and 2, at d and 2d) in one slot.
func jointCapture(link core.LinkConfig, rng *rand.Rand, pays [][]byte) (*capture, []tag.Config, error) {
	c, err := newCapture(link, rng, pays[0])
	if err != nil {
		return nil, nil, err
	}
	second := link
	second.Channel.DistanceM *= 2
	second.Seed++
	second.Tag.ID = link.Tag.ID + 1
	l2, err := core.NewLink(second)
	if err != nil {
		return nil, nil, err
	}
	m2, _, err := l2.Tag.ModulationSequence(c.packetLen, pays[1])
	if err != nil {
		return nil, nil, err
	}
	c.y = dsp.Add(c.y, l2.Scenario.HB.Apply(tagReflection(l2.Scenario, c.xAir, m2, c.packetStart)))
	return c, []tag.Config{link.Tag, second.Tag}, nil
}

// timer times calls of one layer function and keeps them as spans.
type timer struct {
	o     *outcome
	frame uint64
}

// time runs fn layerReps times and returns the median duration.
func (t *timer) time(name string, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		ds = append(ds, float64(d))
		t.o.spans = append(t.o.spans, span{Name: name, Frame: t.frame, Parent: -1, Start: t0.UnixNano(), End: t0.UnixNano() + int64(d)})
	}
	return time.Duration(median(ds)), nil
}

// layerMetrics times the decoder-stack layers on captures built at the
// workload's configuration and fills their per-layer metrics.
func layerMetrics(o *outcome, lc layerCase) error {
	rng := rand.New(rand.NewSource(lc.seed))
	link := lc.link
	link.Seed = lc.seed
	pay := make([]byte, lc.payload)
	rng.Read(pay)
	c, err := newCapture(link, rng, pay)
	if err != nil {
		return err
	}
	t := &timer{o: o, frame: hashString("layers")}
	set := func(name, unit string, d time.Duration, scale float64) {
		o.set(name, unit, float64(d)/scale)
	}
	const msScale, usScale = 1e6, 1e3
	ps, silentEnd := c.packetStart, c.packetStart+tag.SilentSamples

	// wifi: one excitation build at the workload's packet sizing.
	need := frameSamples(c.tcfg, lc.payload)
	nppdu, err := nppduFor(link, need)
	if err != nil {
		return err
	}
	tg, err := tag.New(c.tcfg)
	if err != nil {
		return err
	}
	d, err := t.time("wifi.ppdu_build", func() error {
		_, _, err := excitation(rng, link, c.scen.TxPowerW(), tg, nppdu)
		return err
	})
	if err != nil {
		return err
	}
	set("wifi.ppdu_build_ms", "ms", d, msScale)

	// tag: modulation sequence time and bytes.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = t.time("tag.modseq", func() error {
		_, _, err := tg.ModulationSequence(c.packetLen, pay)
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	set("tag.modseq_us", "us", d, usScale)
	o.set("tag.modseq_kb", "KB", float64(m1.TotalAlloc-m0.TotalAlloc)/layerReps/1e3)

	// channel: AWGN over the frame window; one channel-evolution step.
	ybuf := append([]complex128(nil), c.y...)
	d, _ = t.time("channel.awgn", func() error { c.scen.Noise.AddInPlaceRange(ybuf, ps, c.hi); return nil })
	set("channel.awgn_us", "us", d, usScale)
	evLink := link
	evLink.Seed++
	evl, err := core.NewLink(evLink)
	if err != nil {
		return err
	}
	ev, err := channel.NewEvolver(rand.New(rand.NewSource(lc.seed)), daemonRho, evl.Scenario)
	if err != nil {
		return err
	}
	d, _ = t.time("channel.evolve", func() error { ev.Step(); return nil })
	set("channel.evolve_us", "us", d, usScale)

	// dsp: the hot window's three channel convolutions; one full-capture
	// same-length convolution at the digital canceller's tap count.
	var z, bs, yw []complex128
	d, _ = t.time("dsp.convolve_range", func() error {
		z = dsp.ConvolveRangeInto(z, c.xAir, c.scen.HF, 0, c.hi)
		bs = dsp.ConvolveRangeInto(bs, c.refl, c.scen.HB, ps, c.hi)
		yw = dsp.ConvolveRangeInto(yw, c.xAir, c.scen.HEnv, ps, c.hi)
		return nil
	})
	set("dsp.convolve_range_us", "us", d, usScale)
	sicCfg := link.Reader.SIC
	taps := make([]complex128, sicCfg.DigitalTaps)
	for i := range taps {
		taps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var same []complex128
	d, _ = t.time("dsp.convolve_same", func() error { same = dsp.ConvolveSameInto(same, c.x, taps); return nil })
	set("dsp.convolve_same_us", "us", d, usScale)

	// linalg: the digital canceller's least-squares fit on the silent
	// window, plain and with the reusable workspace.
	d, err = t.time("linalg.toeplitz", func() error {
		_, err := linalg.ToeplitzLS(c.x, c.y, sicCfg.DigitalTaps, ps, silentEnd, sicCfg.Lambda)
		return err
	})
	if err != nil {
		return err
	}
	set("linalg.toeplitz_us", "us", d, usScale)
	var ws linalg.ToeplitzWorkspace
	d, err = t.time("linalg.toeplitz_fast", func() error {
		_, err := linalg.ToeplitzLSFast(&ws, c.x, c.y, sicCfg.DigitalTaps, ps, silentEnd, sicCfg.Lambda)
		return err
	})
	if err != nil {
		return err
	}
	set("linalg.toeplitz_fast_us", "us", d, usScale)

	// sic: legacy train + full cancel; reusable retrain + window cancel.
	var canc *sic.Canceller
	d, err = t.time("sic.train", func() error {
		var err error
		canc, err = sic.Train(sicCfg, c.xAir, c.x, c.y, ps, silentEnd)
		return err
	})
	if err != nil {
		return err
	}
	set("sic.train_ms", "ms", d, msScale)
	d, _ = t.time("sic.cancel", func() error { canc.Cancel(c.xAir, c.x, c.y); return nil })
	set("sic.cancel_ms", "ms", d, msScale)
	reu, err := sic.NewReusable(sicCfg)
	if err != nil {
		return err
	}
	d, err = t.time("sic.retrain", func() error { return reu.Retrain(c.xAir, c.x, c.y, ps, silentEnd) })
	if err != nil {
		return err
	}
	set("sic.retrain_ms", "ms", d, msScale)
	var clean []complex128
	d, _ = t.time("sic.cancel_range", func() error { clean = reu.CancelRange(clean, c.xAir, c.x, c.y, ps, c.hi); return nil })
	set("sic.cancel_range_ms", "ms", d, msScale)

	// fec: two Viterbi passes over a frame-sized mother-code input.
	bits := make([]byte, tag.FrameInfoBits(lc.payload))
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	soft := fec.HardToSoft(fec.EncodeTerminated(bits))
	for i := range soft {
		soft[i] += 0.3 * rng.NormFloat64()
	}
	d, err = t.time("fec.viterbi", func() error {
		for pass := 0; pass < 2; pass++ {
			if _, err := fec.ViterbiDecode(soft, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("fec.viterbi_us", "us", d, usScale)

	// reader: legacy decode of the full capture, stream decode of the
	// window, and a two-tag joint decode.
	rdr, err := reader.New(link.Reader)
	if err != nil {
		return err
	}
	d, err = t.time("reader.decode", func() error {
		_, err := rdr.Decode(c.x, c.xAir, c.y, ps, c.packetLen, c.tcfg)
		return err
	})
	if err != nil {
		return err
	}
	set("reader.decode_ms", "ms", d, msScale)
	strm, err := rdr.NewStream()
	if err != nil {
		return err
	}
	d, err = t.time("reader.stream_decode", func() error {
		_, err := strm.Decode(c.x, c.xAir, c.y, ps, c.hi-ps, c.tcfg)
		return err
	})
	if err != nil {
		return err
	}
	set("reader.stream_decode_ms", "ms", d, msScale)
	jpays := [][]byte{pay, append([]byte(nil), pay...)}
	jpays[1][0] ^= 0xff
	jc, cfgs, err := jointCapture(link, rng, jpays)
	if err != nil {
		return err
	}
	d, err = t.time("reader.joint", func() error {
		_, err := rdr.DecodeJoint(jc.x, jc.xAir, jc.y, jc.packetStart, jc.packetLen, cfgs)
		return err
	})
	if err != nil {
		return err
	}
	set("reader.joint_ms", "ms", d, msScale)

	// Replay: fresh placements and payloads through the workload's
	// decoder; count CRC passes and CRC passes with the wrong payload.
	ok, falseAcc := 0, 0
	for i := 0; i < layerReps; i++ {
		rl := link
		rl.Seed = lc.seed + int64(i) + 1
		p := make([]byte, lc.payload)
		rng.Read(p)
		rc, err := newCapture(rl, rng, p)
		if err != nil {
			return err
		}
		var res *reader.Result
		if lc.stream {
			res, err = strm.Decode(rc.x, rc.xAir, rc.y, rc.packetStart, rc.hi-rc.packetStart, rc.tcfg)
		} else {
			res, err = rdr.Decode(rc.x, rc.xAir, rc.y, rc.packetStart, rc.packetLen, rc.tcfg)
		}
		if err != nil {
			return err
		}
		if res.FrameOK {
			ok++
			if string(res.Payload) != string(p) {
				falseAcc++
			}
		}
	}
	o.set("reader.frame_ok_frac", "1", float64(ok)/layerReps)
	o.set("reader.crc_false_accept", "count", float64(falseAcc+o.falseAccepts))
	o.note("reader.crc_false_accept", fmt.Sprintf("%d in %d capture replays + %d in the run's replica decodes", falseAcc, layerReps, o.falseAccepts))

	// core: a fresh link and its first packet, as the figures run trials.
	i := 0
	d, err = t.time("core.run_packet", func() error {
		rl := link
		rl.Seed = lc.seed + 1000 + int64(i)
		i++
		l, err := core.NewLink(rl)
		if err != nil {
			return err
		}
		_, err = l.RunPacket(pay)
		if err != nil && !isNoWake(err) {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("core.run_packet_ms", "ms", d, msScale)
	return nil
}
