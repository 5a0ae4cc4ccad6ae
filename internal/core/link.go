// Package core wires the BackFi system together: the WiFi AP's
// excitation transmission, the propagation scenario, the tag's wake-up
// and backscatter modulation, self-interference cancellation, and the
// MRC decoder. It exposes a per-packet link simulator plus the rate
// adaptation used by the paper's evaluation (pick the minimum-REPB
// configuration that decodes at the operating SNR).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/reader"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// ErrTagNoWake is the expected outcome of a placement outside detector
// range: the tag failed to wake (or woke off-time, which the protocol
// treats the same way). Monte-Carlo evaluation counts it as zero
// throughput instead of aborting; check with errors.Is. Every other
// RunPacket error is a genuine pipeline failure and propagates.
var ErrTagNoWake = errors.New("core: tag did not wake")

// LinkConfig assembles one BackFi link.
type LinkConfig struct {
	// Channel is the placement/propagation model.
	Channel channel.Config
	// Tag is the tag's transmission configuration.
	Tag tag.Config
	// Reader is the AP decoder configuration.
	Reader reader.Config
	// WiFiMbps is the excitation packet bitrate (paper: 24 Mbps).
	WiFiMbps int
	// WiFiPSDUBytes is the excitation PSDU size per PPDU.
	WiFiPSDUBytes int
	// Seed drives all randomness (placement, noise, payloads).
	Seed int64
	// Faults selects the RF impairments and packet-level faults injected
	// into the link (DESIGN.md §5d). Nil (or an all-zero profile) leaves
	// the pipeline bit-identical to an unfaulted build: the injector
	// draws from its own seeded RNG, so the placement/noise/payload
	// streams never shift.
	Faults *fault.Profile
	// Obs receives the link's pipeline metrics (per-stage spans, packet
	// and failure counters, SNR/BER histograms). Nil disables
	// instrumentation at zero cost; metrics never feed back into the
	// simulation, so results are identical with or without a registry.
	// NewLink propagates the registry into the reader and SIC configs
	// unless those carry their own.
	Obs *obs.Registry
	// Migratable pins every attempt's stochastic draws (excitation
	// payload bytes, transmit distortion, AWGN, channel evolution
	// innovations, fault draws) to a pure function of (Seed, attempt
	// ordinal) by reseeding the link's streams at each attempt start,
	// instead of letting one sequential stream accumulate position
	// (DESIGN.md §5j). That makes the link's whole stochastic future a
	// function of a tiny snapshot — the attempt counter — so a session
	// can hand off to another reader node and continue byte-identically.
	// Off (the default), draw schedules are bit-identical to previous
	// builds. On, results are deterministic for a fixed (seed, call
	// sequence) but follow the per-attempt schedule — a different
	// realization of the same statistics, like SessionCache.
	Migratable bool
	// SessionCache enables the serving hot path (DESIGN.md §5g): the
	// realized excitation (ideal + distorted copies) is cached across
	// frames and rebuilt only when the tag configuration or packet
	// sizing changes, and all per-frame channel/noise/decode work is
	// windowed to the samples the tag frame actually occupies, with a
	// per-link reader.Stream reusing SIC and channel-estimate scratch.
	// Off (the default), RunPacket is bit-identical to the legacy
	// per-frame pipeline. On, results are deterministic for a fixed
	// (seed, call sequence) but follow the hot path's own RNG-draw
	// schedule — a different realization of the same statistics, not a
	// different receiver. Links with an active fault profile always take
	// the legacy path, so fault semantics never fork.
	SessionCache bool
}

// DefaultLinkConfig returns the paper's standard operating point at the
// given AP–tag distance: 24 Mbps excitation packets, QPSK 1/2 tag at
// 1 Msym/s.
func DefaultLinkConfig(distanceM float64) LinkConfig {
	return LinkConfig{
		Channel: channel.DefaultConfig(distanceM),
		Tag: tag.Config{
			Mod:           tag.QPSK,
			Coding:        fec.Rate12,
			SymbolRateHz:  1e6,
			PreambleChips: tag.DefaultPreambleChips,
			ID:            1,
		},
		Reader:        reader.DefaultConfig(),
		WiFiMbps:      24,
		WiFiPSDUBytes: 1500,
		Seed:          1,
	}
}

// PacketResult reports one end-to-end packet exchange.
type PacketResult struct {
	// Decode is the reader's output.
	Decode *reader.Result
	// Sent is the payload the tag transmitted.
	Sent []byte
	// PayloadOK reports whether the decoded payload matched exactly.
	PayloadOK bool
	// Delivered reports whether the exchange completed end to end. For
	// a one-shot RunPacket it equals PayloadOK; the session ARQ layer
	// clears it when the reader decoded the frame but the ACK back to
	// the tag was lost, so PayloadOK can be true while Delivered is
	// false. Goodput consumers must key off Delivered — counting
	// PayloadOK double-counts ACK-dropped frames the tag retransmits.
	Delivered bool
	// RawBitErrors / RawBits count pre-FEC coded-bit errors (hard
	// decisions on the MRC symbol estimates vs the transmitted coded
	// bits) — the BER axis of paper Fig. 11b.
	RawBitErrors, RawBits int
	// ExpectedSNRdB is the oracle (VNA-style) per-sample backscatter
	// SNR from the true channels against thermal noise alone.
	ExpectedSNRdB float64
	// ExpectedMRCSNRdB is the paper Fig. 11a x-axis: the oracle
	// backscatter power over the receiver's *measured*
	// post-cancellation floor (thermal noise + SI residue, as a VNA
	// plus a floor measurement would predict), plus the MRC combining
	// gain. Measured − expected is then the decoder's own loss.
	ExpectedMRCSNRdB float64
	// MeasuredSNRdB is the decoder's post-MRC symbol SNR — Fig. 11a's
	// y-axis (compare with ExpectedMRCSNRdB).
	MeasuredSNRdB float64
	// ExcitationSamples is the excitation length used.
	ExcitationSamples int
	// TagAirtimeSec is the tag's active modulation time.
	TagAirtimeSec float64

	// Per-stage diagnostics, lifted out of Decode so callers read them
	// directly instead of re-deriving them from the reader's report:

	// SICBeforeDBm / SICResidualDBm bracket the canceller: received
	// self-interference power and the post-cancellation floor over the
	// training window. SICCancellationDB is their difference — the
	// paper's ≈78–80 dB Fig. 7 quantity.
	SICBeforeDBm, SICResidualDBm, SICCancellationDB float64
	// SyncOffsetSamples is the symbol-timing correction the PN
	// preamble search applied relative to protocol timing.
	SyncOffsetSamples int
	// PreambleCorr is the normalized tag-preamble correlation
	// (1 = perfect).
	PreambleCorr float64
	// ViterbiCorrectedBits counts coded bits the Viterbi decoder fixed
	// inside the frame (receiver-side; no ground truth needed).
	ViterbiCorrectedBits int
}

// RawBER returns the pre-FEC bit error rate.
func (p *PacketResult) RawBER() float64 {
	if p.RawBits == 0 {
		return 0
	}
	return float64(p.RawBitErrors) / float64(p.RawBits)
}

// liftDiagnostics copies the reader's per-stage report into the
// result's flat diagnostic fields.
func (p *PacketResult) liftDiagnostics(res *reader.Result) {
	p.SICBeforeDBm = res.SIC.BeforeDBm
	p.SICResidualDBm = res.SIC.AfterDBm
	p.SICCancellationDB = res.SIC.CancellationDB
	p.SyncOffsetSamples = res.TimingOffset
	p.PreambleCorr = res.PreambleCorr
	p.ViterbiCorrectedBits = res.ViterbiCorrectedBits
}

// linkMetrics holds the link's instrument handles, resolved once at
// NewLink so RunPacket does no registry lookups. Without a registry
// every instrument is nil (no-op) and the stages time only trace spans.
type linkMetrics struct {
	excitation     obs.Stage
	channelSim     obs.Stage
	decode         obs.Stage
	packets        *obs.Counter
	packetsOK      *obs.Counter
	failWake       *obs.Counter
	failWakeTiming *obs.Counter
	rawBER         *obs.Histogram
	snrExpected    *obs.Histogram
	snrExpectedMRC *obs.Histogram
	snrMeasured    *obs.Histogram
	cacheHit       *obs.Counter
	cacheMiss      *obs.Counter
	slotCacheHit   *obs.Counter
	slotCacheMiss  *obs.Counter
}

func newLinkMetrics(r *obs.Registry) linkMetrics {
	snr := func(kind string) *obs.Histogram {
		return r.Histogram(obs.MetricSNR, "Per-packet SNR in dB.", obs.DBBuckets, "kind", kind)
	}
	return linkMetrics{
		excitation:     r.Stage("excitation_build"),
		channelSim:     r.Stage("channel_sim"),
		decode:         r.Stage("decode_total"),
		packets:        r.Counter(obs.MetricPackets, "Packet exchanges attempted."),
		packetsOK:      r.Counter(obs.MetricPacketsOK, "Packets whose decoded payload matched exactly."),
		failWake:       r.Counter(obs.MetricStageFailures, "Decode aborts and frame failures by pipeline stage.", "stage", "wake"),
		failWakeTiming: r.Counter(obs.MetricStageFailures, "Decode aborts and frame failures by pipeline stage.", "stage", "wake_timing"),
		rawBER:         r.Histogram(obs.MetricRawBER, "Per-packet pre-FEC coded-bit error rate.", obs.BERBuckets),
		snrExpected:    snr("expected"),
		snrExpectedMRC: snr("expected_mrc"),
		snrMeasured:    snr("measured"),
		cacheHit:       r.Counter(obs.MetricLinkCache, "Excitation-cache lookups on the session-cache hot path, by outcome.", "outcome", "hit"),
		cacheMiss:      r.Counter(obs.MetricLinkCache, "Excitation-cache lookups on the session-cache hot path, by outcome.", "outcome", "miss"),
		slotCacheHit:   r.Counter(obs.MetricMultiTagSlotCache, "Multi-tag excitation lookups (slot pool or session cache), by outcome.", "outcome", "hit"),
		slotCacheMiss:  r.Counter(obs.MetricMultiTagSlotCache, "Multi-tag excitation lookups (slot pool or session cache), by outcome.", "outcome", "miss"),
	}
}

// Link is a realized BackFi link: one placement draw plus the tag and
// reader instances.
type Link struct {
	Cfg      LinkConfig
	Scenario *channel.Scenario
	Tag      *tag.Tag
	rdr      *reader.Reader
	rng      *rand.Rand
	inj      *fault.Injector
	rate     wifi.Rate
	m        linkMetrics
	// hot is the session-cache state (hotpath.go); nil until the first
	// fast-path frame builds it.
	hot *hotState
	// faultEpoch counts SetFaultProfile calls; it salts each new
	// injector's seed so successive profiles draw decorrelated streams.
	faultEpoch int
	// injBase is the current injector's base seed (epoch-salted); the
	// migratable mode mixes the attempt ordinal into it per attempt.
	injBase int64
	// curAttempt is the attempt ordinal the migratable mode last
	// reseeded for; the hot path restores the attempt stream after a
	// cache rebuild's temporary config-seeded draws.
	curAttempt int
	// trace is the per-frame trace context (DESIGN.md §5h); the serving
	// layer reassigns it before each RunPacket. Zero = tracing off.
	trace obs.TraceCtx
}

// SetTrace points the next RunPacket at a per-frame trace context and
// propagates it down the pipeline (reader stages, SIC training). The
// zero TraceCtx disables tracing; reassignment is two word copies, so
// per-frame switching costs nothing. Tracing never feeds back into the
// computation — the decode byte stream is identical traced or not.
func (l *Link) SetTrace(t obs.TraceCtx) {
	l.trace = t
	l.rdr.SetTrace(t)
}

// faultSeedSalt decorrelates the injector's RNG stream from the link's
// main stream, which is seeded with cfg.Seed directly.
const faultSeedSalt = 0x5fa017

// NewLink draws a placement realization and builds the endpoints.
func NewLink(cfg LinkConfig) (*Link, error) {
	rate, err := wifi.RateByMbps(cfg.WiFiMbps)
	if err != nil {
		return nil, err
	}
	if cfg.WiFiPSDUBytes <= 0 {
		return nil, fmt.Errorf("core: WiFiPSDUBytes must be positive")
	}
	tg, err := tag.New(cfg.Tag)
	if err != nil {
		return nil, err
	}
	if cfg.Reader.Obs == nil {
		cfg.Reader.Obs = cfg.Obs
	}
	rdr, err := reader.New(cfg.Reader)
	if err != nil {
		return nil, err
	}
	inj, err := fault.NewInjector(cfg.Faults, cfg.Seed^faultSeedSalt, tag.SampleRate, cfg.Obs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc, err := channel.NewScenario(cfg.Channel, rng)
	if err != nil {
		return nil, err
	}
	return &Link{
		Cfg:      cfg,
		Scenario: sc,
		Tag:      tg,
		rdr:      rdr,
		rng:      rng,
		inj:      inj,
		rate:     rate,
		injBase:  cfg.Seed ^ faultSeedSalt,
		m:        newLinkMetrics(cfg.Obs),
	}, nil
}

// attemptSeed mixes an attempt ordinal into a base seed (splitmix64
// finalizer), giving each attempt a decorrelated stream while staying
// a pure function of (base, n) — the migratable mode's whole contract.
func attemptSeed(base int64, n int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ReseedAttempt pins the link's RNG streams to attempt ordinal n —
// the migratable-session schedule (DESIGN.md §5j). The main stream
// (excitation bytes, transmit distortion, AWGN) and the fault stream
// reseed to pure functions of their base seeds and n; the channel
// evolver's stream is owned by the session and reseeded there. The
// serving layer never calls this directly: Session.Send drives it.
func (l *Link) ReseedAttempt(n int) {
	l.curAttempt = n
	l.rng.Seed(attemptSeed(l.Cfg.Seed, n))
	l.inj.Reseed(attemptSeed(l.injBase, n))
}

// SetTagConfig swaps the link's tag configuration in place — the rate
// controller's switch path (DESIGN.md §5f). The placement realization,
// RNG stream, and fault injector all carry over untouched: only the
// tag's modulation/coding/rate change, exactly as a real tag obeys a
// new configuration carried in the reader's poll. Setting the current
// configuration is a no-op, so an idle controller never perturbs
// anything.
func (l *Link) SetTagConfig(cfg tag.Config) error {
	if cfg == l.Tag.Cfg {
		return nil
	}
	tg, err := tag.New(cfg)
	if err != nil {
		return err
	}
	l.Tag = tg
	l.Cfg.Tag = cfg
	return nil
}

// SetFaultProfile swaps the link's impairment profile mid-stream — the
// chaos harness's severity ramp. The new injector's seed derives from
// the link seed and a switch epoch counter, so a fixed (seed, switch
// sequence) pair is bit-identical across runs while successive
// profiles draw decorrelated fault streams. Nil (or an all-zero
// profile) switches faults off.
func (l *Link) SetFaultProfile(p *fault.Profile) error {
	inj, err := fault.NewInjector(p, l.Cfg.Seed^faultSeedSalt+int64(l.faultEpoch+1)*15485863, tag.SampleRate, l.Cfg.Obs)
	if err != nil {
		return err
	}
	l.faultEpoch++
	l.inj = inj
	l.injBase = l.Cfg.Seed ^ faultSeedSalt + int64(l.faultEpoch)*15485863
	l.Cfg.Faults = p
	return nil
}

// Well-known addresses of the simulated cell.
var (
	apAddr     = wifi.MACAddr{0x02, 0x00, 0x00, 0xba, 0xcf, 0x01}
	clientAddr = wifi.MACAddr{0x02, 0x00, 0x00, 0xc1, 0x1e, 0x42}
)

// buildExcitation assembles the AP's transmission for one exchange,
// following the paper's protocol (Sec. 4.1/Fig. 4): a CTS-to-SELF to
// silence the cell, the tag's 16 µs wake preamble, then back-to-back
// framed downlink MPDUs as the excitation. It returns the ideal
// baseband samples and the index where the excitation packet (= the
// tag's timing origin) begins.
func buildExcitation(rng *rand.Rand, rate wifi.Rate, psduBytes int, txPowerW float64, tg *tag.Tag, nppdu int) ([]complex128, int, error) {
	amp := complex(math.Sqrt(txPowerW), 0)

	// CTS-to-SELF at the 6 Mbps basic rate, NAV covering the exchange.
	basic, err := wifi.RateByMbps(6)
	if err != nil {
		return nil, 0, err
	}
	navUs := 16 + nppdu*int(wifi.AirtimeSeconds(psduBytes, rate)*1e6)
	if navUs > 32767 {
		navUs = 32767
	}
	cts, err := wifi.BuildCTSToSelf(apAddr, navUs)
	if err != nil {
		return nil, 0, err
	}
	ctsWave, err := wifi.Transmit(cts, basic, wifi.DefaultScramblerSeed)
	if err != nil {
		return nil, 0, err
	}

	wake := tag.WakeWaveform(tg.WakeSeq(), math.Sqrt(txPowerW))
	x := append(dsp.Scale(ctsWave, amp), wake...)
	packetStart := len(x)

	// Downlink MPDUs: psduBytes on the air, of which 28 bytes are MAC
	// header + FCS.
	msduBytes := psduBytes - 28
	if msduBytes < 1 {
		msduBytes = 1
	}
	for i := 0; i < nppdu; i++ {
		msdu := make([]byte, msduBytes)
		rng.Read(msdu)
		mpdu, err := wifi.BuildDataMPDU(wifi.MPDUHeader{
			Addr1: clientAddr, Addr2: apAddr, Addr3: apAddr, Seq: i & 0xFFF,
		}, msdu)
		if err != nil {
			return nil, 0, err
		}
		wave, err := wifi.Transmit(mpdu, rate, wifi.DefaultScramblerSeed)
		if err != nil {
			return nil, 0, err
		}
		x = append(x, dsp.Scale(wave, amp)...)
	}
	return x, packetStart, nil
}

// RunPacket performs one full exchange: the AP transmits a CTS-to-SELF,
// the wake preamble, and enough back-to-back WiFi PPDUs for the
// payload; the tag wakes and backscatters; the AP decodes.
func (l *Link) RunPacket(payload []byte) (*PacketResult, error) {
	// The session-cache hot path handles unfaulted links only; an active
	// injector's per-frame hooks assume the legacy full-capture pipeline.
	if l.Cfg.SessionCache && l.inj == nil {
		return l.runPacketHot(payload)
	}
	l.m.packets.Inc()

	// Excitation sizing: enough PPDU samples to carry the payload.
	need := tag.SilentSamples + l.Tag.Cfg.PreambleSamples() +
		tag.SymbolsForPayload(len(payload), l.Tag.Cfg.Coding, l.Tag.Cfg.Mod)*l.Tag.Cfg.SamplesPerSymbol()
	ppduLen := wifi.PPDULen(l.Cfg.WiFiPSDUBytes, l.rate)
	nppdu := (need + ppduLen - 1) / ppduLen
	if nppdu < 1 {
		nppdu = 1
	}

	spExc := l.m.excitation.Start(l.trace)
	x, packetStart, err := buildExcitation(l.rng, l.rate, l.Cfg.WiFiPSDUBytes, l.Scenario.TxPowerW(), l.Tag, nppdu)
	spExc.End()
	if err != nil {
		return nil, err
	}
	packetLen := len(x) - packetStart

	spChan := l.m.channelSim.Start(l.trace)

	// Air: the transmitted waveform carries hardware distortion the
	// receiver cannot reconstruct, plus any injected front-end
	// impairments (CFO/SCO) — the reader's ideal copy x keeps its own
	// clock, so these degrade cancellation and channel estimation.
	xAir := l.inj.ApplyFrontEnd(l.Scenario.Distortion.Apply(x))

	// Tag side: excitation through the forward channel; wake detection.
	// The tag scans only the region after the CTS-to-SELF (its envelope
	// detector ignores the constant-on CTS burst, which cannot match
	// the balanced wake sequence, but we keep the search window tight
	// like a real comparator would).
	z := l.Scenario.HF.Apply(xAir)
	if l.inj.DropWake() {
		l.m.failWake.Inc()
		return nil, fmt.Errorf("%w: injected wake fault at %.2g m", ErrTagNoWake, l.Cfg.Channel.DistanceM)
	}
	wakeIdx, ok := l.Tag.TryWake(z[:packetStart+tag.SilentSamples])
	if !ok {
		l.m.failWake.Inc()
		return nil, fmt.Errorf("%w at %.2g m", ErrTagNoWake, l.Cfg.Channel.DistanceM)
	}
	// The detector quantizes to 1 µs bits; snap to the true PPDU start
	// (within one bit period, as the real tag's comparator clock does).
	if d := wakeIdx - packetStart; d < -tag.WakeBitSamples || d > tag.WakeBitSamples {
		l.m.failWakeTiming.Inc()
		return nil, fmt.Errorf("%w: wake timing off by %d samples", ErrTagNoWake, d)
	}

	m, plan, err := l.Tag.ModulationSequence(packetLen, payload)
	if err != nil {
		return nil, err
	}
	// Tag-side faults: oscillator phase noise over the reflection, and
	// preamble chips the modulator glitches.
	l.inj.ApplyTagPhaseNoise(m)
	l.inj.CorruptPreamble(m, plan.SilentEnd, l.Tag.Cfg.PreambleChips, tag.ChipSamples)
	mFull := make([]complex128, len(x))
	copy(mFull[packetStart:], m)
	reflected := tag.Backscatter(z, mFull)
	bs := l.Scenario.HB.Apply(reflected)

	// AP receive: self-interference + backscatter + thermal noise, then
	// receiver-side faults (interference bursts, the real ADC, capture
	// truncation).
	y := l.Scenario.Noise.Add(dsp.Add(l.Scenario.HEnv.Apply(xAir), bs))
	l.inj.AddInterference(y)
	l.inj.ApplyADC(y)
	l.inj.TruncateTail(y, packetStart, packetLen)
	spChan.End()

	spDec := l.m.decode.Start(l.trace)
	res, err := l.rdr.Decode(x, xAir, y, packetStart, packetLen, l.Tag.Cfg)
	spDec.End()
	if err != nil {
		return nil, err
	}

	// Ground-truth comparisons.
	pr := &PacketResult{
		Decode:            res,
		Sent:              payload,
		ExcitationSamples: packetLen,
		TagAirtimeSec:     float64(plan.End()-plan.SilentEnd) / tag.SampleRate,
		ExpectedSNRdB:     l.Scenario.ExpectedSNRdB(),
		MeasuredSNRdB:     res.SNRdB,
	}
	pr.liftDiagnostics(res)
	sps := l.Tag.Cfg.SamplesPerSymbol()
	guard := l.Cfg.Reader.ChannelTaps
	if guard > sps/2 {
		guard = sps / 2
	}
	floorW := dsp.UnDBm(pr.SICResidualDBm)
	pr.ExpectedMRCSNRdB = dsp.SNRdB(l.Scenario.BackscatterRxPowerW(), floorW) + dsp.DB(float64(sps-guard))
	pr.PayloadOK = res.FrameOK && bytesEqual(res.Payload, payload)
	pr.Delivered = pr.PayloadOK

	// Raw coded-bit errors over the frame's symbols.
	hard := l.Tag.Cfg.Mod.DemapHard(res.SymbolEstimates[:min(len(plan.Symbols), len(res.SymbolEstimates))])
	for i, b := range plan.CodedBits[:min(len(plan.CodedBits), len(hard))] {
		if hard[i] != b {
			pr.RawBitErrors++
		}
		pr.RawBits++
	}
	l.observeResult(pr)
	return pr, nil
}

// observeResult records one packet's outcome into the link metrics.
func (l *Link) observeResult(pr *PacketResult) {
	if pr.PayloadOK {
		l.m.packetsOK.Inc()
	}
	l.m.rawBER.Observe(pr.RawBER())
	l.m.snrExpected.Observe(pr.ExpectedSNRdB)
	l.m.snrExpectedMRC.Observe(pr.ExpectedMRCSNRdB)
	l.m.snrMeasured.Observe(pr.MeasuredSNRdB)
}

// RandomPayload draws a payload of n bytes from the link's RNG.
func (l *Link) RandomPayload(n int) []byte {
	p := make([]byte, n)
	l.rng.Read(p)
	return p
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
