package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// Multi-tag deployments (paper Sec. 4.1: "a preamble can be unique to
// a particular BackFi tag ... and can be used to select which BackFi
// tag gets to backscatter at that instant"). A MultiTagLink places
// several tags around one AP. Two polling regimes:
//
//   - RunPacket addresses ONE tag by its wake sequence — the paper's
//     original arbitration. Correctly-behaving unaddressed tags stay
//     asleep; a misconfigured tag sharing the addressed tag's wake
//     sequence backscatters concurrently and collides.
//   - RunSlot lights a GROUP that shares a wake sequence (SetWakeGroup
//   - mac.TagMAC arbitration) and decodes the colliding reflections
//     jointly by successive cancellation (DESIGN.md §5i).
//
// Both regimes run through the same fault-injected, traced, metered
// machinery as the single-tag Link — the base link below carries the
// injector, trace context, metrics, and RNG — so injected impairments
// and spans show up in multi-tag results exactly as they do in
// single-tag ones.
type MultiTagLink struct {
	Cfg LinkConfig
	// Tags and their independent placements; Tags[i] sits at
	// Distances[i].
	Tags      []*tag.Tag
	Scenarios []*channel.Scenario
	// base carries the shared per-link machinery: rng, rate, reader,
	// fault injector, metrics, and trace context.
	base *Link
	// frame counts exchanges (RunPacket and RunSlot alike); it keys the
	// impostor payload derivation so junk bytes are a pure function of
	// (link seed, tag ID, frame index) — never of the shared RNG, whose
	// draw schedule must stay identical whatever the wake outcomes.
	frame int
	// pool, when set, shares immutable excitation templates across
	// sessions (copy-on-write: per-frame transmit distortion is applied
	// into a fresh transient buffer, the template is never written).
	pool *SlotPool
	// hot is the per-link excitation cache used when Cfg.SessionCache
	// is set without a pool — the multi-tag analogue of §5g.
	hot *mtHot
}

// mtHot caches the most recent realized excitation, keyed like the
// single-tag hot path by everything that shapes it.
type mtHot struct {
	scIdx       int
	wakeID      int
	nppdu       int
	x, xAir     []complex128
	packetStart int
}

// NewMultiTagLink builds a deployment: one tag per distance, with IDs
// 0..n-1 and otherwise identical configuration.
func NewMultiTagLink(cfg LinkConfig, distances []float64) (*MultiTagLink, error) {
	if len(distances) == 0 {
		return nil, fmt.Errorf("core: need at least one tag")
	}
	base, err := NewLink(cfg)
	if err != nil {
		return nil, err
	}
	m := &MultiTagLink{Cfg: cfg, base: base}
	for i, d := range distances {
		tcfg := cfg.Tag
		tcfg.ID = i
		tg, err := tag.New(tcfg)
		if err != nil {
			return nil, err
		}
		chanCfg := cfg.Channel
		chanCfg.DistanceM = d
		sc, err := channel.NewScenario(chanCfg, base.rng)
		if err != nil {
			return nil, err
		}
		m.Tags = append(m.Tags, tg)
		m.Scenarios = append(m.Scenarios, sc)
	}
	return m, nil
}

// SetWakeGroup rebuilds every tag to wake on wakeID's sequence while
// keeping its own PN preamble — the group-wake regime RunSlot decodes
// jointly. Tag configurations and placements are unchanged.
func (m *MultiTagLink) SetWakeGroup(wakeID int) error {
	for i, tg := range m.Tags {
		ng, err := tag.NewWithWake(tg.Cfg, wakeID)
		if err != nil {
			return err
		}
		m.Tags[i] = ng
	}
	m.hot = nil
	return nil
}

// SetSlotPool shares excitation templates with other links (sessions)
// holding the same pool. Only used on unfaulted links — an injector's
// front-end impairments are per-frame and cannot be shared.
func (m *MultiTagLink) SetSlotPool(p *SlotPool) { m.pool = p }

// SetTrace points subsequent exchanges at the per-frame trace context,
// exactly as Link.SetTrace does.
func (m *MultiTagLink) SetTrace(t obs.TraceCtx) { m.base.SetTrace(t) }

// SetFaultProfile swaps the link's injected fault profile (see
// Link.SetFaultProfile for the reseeding contract).
func (m *MultiTagLink) SetFaultProfile(p *fault.Profile) error {
	if err := m.base.SetFaultProfile(p); err != nil {
		return err
	}
	m.Cfg.Faults = m.base.Cfg.Faults
	return nil
}

// impostorPayload derives the junk frame an impostor backscatters as a
// pure function of (link seed, tag ID, frame index). The shared link
// RNG is deliberately not involved: whether an impostor wakes must
// never shift any other draw in the session's schedule, or decode
// streams would diverge across wake outcomes and worker counts.
func impostorPayload(seed int64, tagID, frame, n int) []byte {
	h := uint64(1469598103934665603) ^ uint64(seed)
	for _, v := range [...]uint64{uint64(tagID), uint64(frame)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= 1099511628211
		}
	}
	body := make([]byte, n)
	rand.New(rand.NewSource(int64(h))).Read(body)
	return body
}

// excitation realizes the wake burst + PPDU train for one exchange:
// from the shared pool when one is set, from the per-link cache under
// SessionCache, otherwise fresh from the link RNG — mirroring the
// single-tag §5g gating (caches are bypassed whenever a fault injector
// is active, whose front-end impairments are per-frame).
func (m *MultiTagLink) excitation(scIdx, wakeIdx, nppdu int) (x, xAir []complex128, packetStart int, err error) {
	sc := m.Scenarios[scIdx]
	tg := m.Tags[wakeIdx]
	wakeID := tg.WakeID()
	defer m.base.m.excitation.Start(m.base.trace).End()

	if m.base.inj == nil && m.pool != nil {
		tx, ps, hit, err := m.pool.excitation(tg, m.base.rate, m.Cfg.WiFiPSDUBytes, sc.TxPowerW(), nppdu)
		if err != nil {
			return nil, nil, 0, err
		}
		if hit {
			m.base.m.slotCacheHit.Inc()
		} else {
			m.base.m.slotCacheMiss.Inc()
		}
		// Copy-on-write: the template is shared and immutable; the
		// per-frame transmit distortion lands in a fresh buffer.
		return tx, sc.Distortion.Apply(tx), ps, nil
	}
	if m.base.inj == nil && m.Cfg.SessionCache {
		if h := m.hot; h != nil && h.scIdx == scIdx && h.wakeID == wakeID && h.nppdu == nppdu {
			m.base.m.slotCacheHit.Inc()
			return h.x, h.xAir, h.packetStart, nil
		}
		m.base.m.slotCacheMiss.Inc()
		tx, ps, err := buildExcitation(m.base.rng, m.base.rate, m.Cfg.WiFiPSDUBytes, sc.TxPowerW(), tg, nppdu)
		if err != nil {
			return nil, nil, 0, err
		}
		m.hot = &mtHot{scIdx: scIdx, wakeID: wakeID, nppdu: nppdu,
			x: tx, xAir: sc.Distortion.Apply(tx), packetStart: ps}
		return m.hot.x, m.hot.xAir, m.hot.packetStart, nil
	}
	tx, ps, err := buildExcitation(m.base.rng, m.base.rate, m.Cfg.WiFiPSDUBytes, sc.TxPowerW(), tg, nppdu)
	if err != nil {
		return nil, nil, 0, err
	}
	return tx, m.base.inj.ApplyFrontEnd(sc.Distortion.Apply(tx)), ps, nil
}

// sizing returns the PPDU count covering `need` post-wake samples.
func (m *MultiTagLink) sizing(need int) int {
	ppduLen := wifi.PPDULen(m.Cfg.WiFiPSDUBytes, m.base.rate)
	nppdu := (need + ppduLen - 1) / ppduLen
	if nppdu < 1 {
		nppdu = 1
	}
	return nppdu
}

// tagNeed is the post-wake sample budget for one tag's frame.
func tagNeed(tcfg tag.Config, payloadBytes int) int {
	return tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(payloadBytes, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol()
}

// MultiTagResult reports one addressed exchange.
type MultiTagResult struct {
	// Addressed is the polled tag index.
	Addressed int
	// Woke[i] reports whether tag i's detector fired on this wake
	// preamble.
	Woke []bool
	// Result is the decode outcome for the addressed tag.
	Result *PacketResult
}

// RunPacket polls one tag: the AP transmits that tag's wake sequence,
// every tag's detector inspects it, and only tags whose correlator
// matches backscatter. All active reflections superpose at the AP.
func (m *MultiTagLink) RunPacket(addressed int, payload []byte) (*MultiTagResult, error) {
	if addressed < 0 || addressed >= len(m.Tags) {
		return nil, fmt.Errorf("core: tag index %d out of range", addressed)
	}
	frame := m.frame
	m.frame++
	m.base.m.packets.Inc()
	tgt := m.Tags[addressed]
	nppdu := m.sizing(tagNeed(tgt.Cfg, len(payload)))

	// The excitation carries the addressed tag's wake sequence.
	x, xAir, packetStart, err := m.excitation(addressed, addressed, nppdu)
	if err != nil {
		return nil, err
	}
	packetLen := len(x) - packetStart

	spChan := m.base.m.channelSim.Start(m.base.trace)
	res := &MultiTagResult{Addressed: addressed, Woke: make([]bool, len(m.Tags))}

	// An injected wake fault corrupts the burst itself: the addressed
	// tag sleeps through the poll. (Impostors sharing the sequence miss
	// it too — it is the same burst.)
	wakeDropped := m.base.inj.DropWake()
	if wakeDropped {
		m.base.m.failWake.Inc()
	}

	// Every tag sees the excitation through its own forward channel and
	// decides independently whether it was addressed.
	var plan *tag.TxPlan
	total := m.Scenarios[addressed].HEnv.Apply(xAir)
	for i, tg := range m.Tags {
		sc := m.Scenarios[i]
		z := sc.HF.Apply(xAir)
		_, woke := tg.TryWake(z[:packetStart+tag.SilentSamples])
		woke = woke && !wakeDropped
		res.Woke[i] = woke
		if !woke {
			continue
		}
		// A woken tag backscatters its own frame. The addressed tag
		// sends the caller's payload; an impostor (same wake sequence)
		// sends junk derived from (seed, its ID, frame index).
		body := payload
		if i != addressed {
			body = impostorPayload(m.Cfg.Seed, tg.Cfg.ID, frame, len(payload))
		}
		mSeq, p, err := tg.ModulationSequence(packetLen, body)
		if err != nil {
			return nil, err
		}
		if i == addressed {
			plan = p
			// Tag-side faults follow the addressed tag, as on the
			// single-tag link.
			m.base.inj.ApplyTagPhaseNoise(mSeq)
			m.base.inj.CorruptPreamble(mSeq, p.SilentEnd, tg.Cfg.PreambleChips, tag.ChipSamples)
		}
		mFull := make([]complex128, len(x))
		copy(mFull[packetStart:], mSeq)
		total = dsp.Add(total, sc.HB.Apply(tag.Backscatter(z, mFull)))
	}
	y := m.Scenarios[addressed].Noise.Add(total)
	m.base.inj.AddInterference(y)
	m.base.inj.ApplyADC(y)
	m.base.inj.TruncateTail(y, packetStart, packetLen)
	spChan.End()

	spDec := m.base.m.decode.Start(m.base.trace)
	dec, err := m.base.rdr.Decode(x, xAir, y, packetStart, packetLen, tgt.Cfg)
	spDec.End()
	if err != nil {
		return nil, err
	}
	pr := &PacketResult{
		Decode:            dec,
		Sent:              payload,
		PayloadOK:         dec.FrameOK && bytesEqual(dec.Payload, payload),
		ExcitationSamples: packetLen,
		ExpectedSNRdB:     m.Scenarios[addressed].ExpectedSNRdB(),
		MeasuredSNRdB:     dec.SNRdB,
	}
	pr.Delivered = pr.PayloadOK
	if plan != nil {
		pr.TagAirtimeSec = float64(plan.End()-plan.SilentEnd) / tag.SampleRate
	}
	pr.liftDiagnostics(dec)
	m.base.observeResult(pr)
	res.Result = pr
	return res, nil
}

// SlotResult reports one group slot decoded jointly.
type SlotResult struct {
	// Polled lists the tag indices the slot lit (the MAC group).
	Polled []int
	// Woke[i] reports tag i's detector outcome (all tags, not just the
	// polled ones — unpolled tags sharing the group wake are the
	// impostor interferers).
	Woke []bool
	// Results[k] is Polled[k]'s decode outcome; nil when the joint
	// decoder could not even estimate that tag's channel.
	Results []*PacketResult
	// Order lists decode positions in cancellation order. Entries
	// < len(Polled) index into Polled; larger entries are unpolled
	// wake-group members (impostors) the joint decoder cancelled on
	// the way down.
	Order []int
	// Delivered counts polled tags whose payload round-tripped.
	Delivered int
	// AirtimeSec is the slot's tag airtime (the longest member frame).
	AirtimeSec float64
}

// RunSlot lights every tag in polled with one excitation (they must
// share a wake group — SetWakeGroup) and decodes the colliding
// reflections by joint successive cancellation. payloads[k] is what
// Polled[k] backscatters. Unpolled tags that wake on the group
// sequence backscatter impostor junk and are cancelled or absorbed as
// interference; they are never decoded.
func (m *MultiTagLink) RunSlot(polled []int, payloads [][]byte) (*SlotResult, error) {
	if len(polled) == 0 || len(polled) != len(payloads) {
		return nil, fmt.Errorf("core: RunSlot needs matching polled/payloads, got %d/%d", len(polled), len(payloads))
	}
	inGroup := make(map[int]int, len(polled))
	need := 0
	for k, i := range polled {
		if i < 0 || i >= len(m.Tags) {
			return nil, fmt.Errorf("core: tag index %d out of range", i)
		}
		if _, dup := inGroup[i]; dup {
			return nil, fmt.Errorf("core: tag %d polled twice in one slot", i)
		}
		inGroup[i] = k
		if n := tagNeed(m.Tags[i].Cfg, len(payloads[k])); n > need {
			need = n
		}
	}
	frame := m.frame
	m.frame++
	m.base.m.packets.Inc()
	lead := polled[0]
	nppdu := m.sizing(need)

	x, xAir, packetStart, err := m.excitation(lead, lead, nppdu)
	if err != nil {
		return nil, err
	}
	packetLen := len(x) - packetStart

	spChan := m.base.m.channelSim.Start(m.base.trace)
	res := &SlotResult{
		Polled:  append([]int(nil), polled...),
		Woke:    make([]bool, len(m.Tags)),
		Results: make([]*PacketResult, len(polled)),
	}
	wakeDropped := m.base.inj.DropWake()
	if wakeDropped {
		m.base.m.failWake.Inc()
	}
	plans := make([]*tag.TxPlan, len(polled))
	total := m.Scenarios[lead].HEnv.Apply(xAir)
	for i, tg := range m.Tags {
		sc := m.Scenarios[i]
		z := sc.HF.Apply(xAir)
		_, woke := tg.TryWake(z[:packetStart+tag.SilentSamples])
		woke = woke && !wakeDropped
		res.Woke[i] = woke
		if !woke {
			continue
		}
		k, isPolled := inGroup[i]
		var body []byte
		if isPolled {
			body = payloads[k]
		} else {
			body = impostorPayload(m.Cfg.Seed, tg.Cfg.ID, frame, len(payloads[0]))
		}
		mSeq, p, err := tg.ModulationSequence(packetLen, body)
		if err != nil {
			return nil, err
		}
		if isPolled {
			plans[k] = p
			m.base.inj.ApplyTagPhaseNoise(mSeq)
			m.base.inj.CorruptPreamble(mSeq, p.SilentEnd, tg.Cfg.PreambleChips, tag.ChipSamples)
		}
		mFull := make([]complex128, len(x))
		copy(mFull[packetStart:], mSeq)
		total = dsp.Add(total, sc.HB.Apply(tag.Backscatter(z, mFull)))
	}
	y := m.Scenarios[lead].Noise.Add(total)
	m.base.inj.AddInterference(y)
	m.base.inj.ApplyADC(y)
	m.base.inj.TruncateTail(y, packetStart, packetLen)
	spChan.End()

	// The reader decodes every provisioned member of the wake group,
	// not just the polled subset: an unpolled member that woke (an
	// impostor) is still a known PN the successive canceller can peel
	// off, which is what keeps the polled layers decodable underneath
	// it. Only polled outcomes are reported.
	cfgs := make([]tag.Config, len(polled), len(m.Tags))
	for k, i := range polled {
		cfgs[k] = m.Tags[i].Cfg
	}
	for i, tg := range m.Tags {
		if _, isPolled := inGroup[i]; !isPolled && tg.WakeID() == m.Tags[lead].WakeID() {
			cfgs = append(cfgs, tg.Cfg)
		}
	}
	spDec := m.base.m.decode.Start(m.base.trace)
	jr, err := m.base.rdr.DecodeJoint(x, xAir, y, packetStart, packetLen, cfgs)
	spDec.End()
	if err != nil {
		return nil, err
	}
	res.Order = jr.Order
	for k, i := range polled {
		dec := jr.Tags[k]
		if dec == nil {
			continue
		}
		pr := &PacketResult{
			Decode:            dec,
			Sent:              payloads[k],
			PayloadOK:         dec.FrameOK && bytesEqual(dec.Payload, payloads[k]),
			ExcitationSamples: packetLen,
			ExpectedSNRdB:     m.Scenarios[i].ExpectedSNRdB(),
			MeasuredSNRdB:     dec.SNRdB,
		}
		pr.Delivered = pr.PayloadOK
		if plans[k] != nil {
			pr.TagAirtimeSec = float64(plans[k].End()-plans[k].SilentEnd) / tag.SampleRate
			if pr.TagAirtimeSec > res.AirtimeSec {
				res.AirtimeSec = pr.TagAirtimeSec
			}
		}
		pr.liftDiagnostics(dec)
		m.base.observeResult(pr)
		res.Results[k] = pr
		if pr.Delivered {
			res.Delivered++
		}
	}
	return res, nil
}

// SlotPool shares immutable excitation templates across every session
// that holds it (DESIGN.md §5i, copy-on-write session state). The
// template bytes derive from the pool seed and the template key alone
// — never from any session's RNG — so two sessions on different shards
// realize identical excitations no matter who builds first, and a
// hundred thousand sessions retain one template instead of a hundred
// thousand private buffers.
type SlotPool struct {
	seed int64
	mu   sync.Mutex
	m    map[slotPoolKey]*slotTemplate
}

type slotPoolKey struct {
	wakeID    int
	psduBytes int
	nppdu     int
	mbps      int
	txBits    uint64
}

type slotTemplate struct {
	x           []complex128
	packetStart int
}

// NewSlotPool builds an empty pool keyed by seed.
func NewSlotPool(seed int64) *SlotPool {
	return &SlotPool{seed: seed, m: make(map[slotPoolKey]*slotTemplate)}
}

// Size reports how many distinct templates the pool holds.
func (p *SlotPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// excitation returns the shared template for the given shape, building
// it on first use. The returned slice is shared and MUST NOT be
// written; hit reports whether the template already existed.
func (p *SlotPool) excitation(tg *tag.Tag, rate wifi.Rate, psduBytes int, txPowerW float64, nppdu int) (x []complex128, packetStart int, hit bool, err error) {
	key := slotPoolKey{
		wakeID:    tg.WakeID(),
		psduBytes: psduBytes,
		nppdu:     nppdu,
		mbps:      rate.Mbps,
		txBits:    math.Float64bits(txPowerW),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.m[key]; ok {
		return t.x, t.packetStart, true, nil
	}
	rng := rand.New(rand.NewSource(p.seed ^ int64(poolKeyHash(key))))
	tx, ps, err := buildExcitation(rng, rate, psduBytes, txPowerW, tg, nppdu)
	if err != nil {
		return nil, 0, false, err
	}
	p.m[key] = &slotTemplate{x: tx, packetStart: ps}
	return tx, ps, false, nil
}

// poolKeyHash folds a template key into the pool seed, FNV-1a style.
func poolKeyHash(k slotPoolKey) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range [...]uint64{uint64(k.wakeID), uint64(k.psduBytes), uint64(k.nppdu),
		uint64(k.mbps), k.txBits} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= 1099511628211
		}
	}
	return h
}
