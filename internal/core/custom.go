package core

import (
	"fmt"
	"math"

	"backfi/internal/dsp"
	"backfi/internal/tag"
)

// RunCustomExcitation performs one exchange using a caller-supplied
// excitation waveform instead of WiFi PPDUs — the paper's generality
// claim (Sec. 1: "the system is applicable for other types of
// communication signals like Bluetooth, Zigbee, etc."). The waveform
// should be at unit average power; it is scaled to the scenario's
// transmit power and prefixed with the tag's wake preamble. The
// reader's cancellation, channel estimation, and MRC run unchanged:
// they only require that the AP knows its own transmission.
//
// The excitation must be long enough for the silent period, the tag
// preamble, and the payload symbols at the tag's configuration.
func (l *Link) RunCustomExcitation(excitation []complex128, payload []byte) (*PacketResult, error) {
	need := tag.SilentSamples + l.Tag.Cfg.PreambleSamples() +
		tag.SymbolsForPayload(len(payload), l.Tag.Cfg.Coding, l.Tag.Cfg.Mod)*l.Tag.Cfg.SamplesPerSymbol()
	if len(excitation) < need {
		return nil, fmt.Errorf("core: excitation of %d samples, need ≥ %d for this payload", len(excitation), need)
	}

	l.m.packets.Inc()
	amp := complex(math.Sqrt(l.Scenario.TxPowerW()), 0)
	wake := tag.WakeWaveform(l.Tag.WakeSeq(), math.Sqrt(l.Scenario.TxPowerW()))
	x := append(append([]complex128{}, wake...), dsp.Scale(excitation, amp)...)
	packetStart := len(wake)
	packetLen := len(x) - packetStart

	spChan := l.m.channelSim.Start(l.trace)
	xAir := l.inj.ApplyFrontEnd(l.Scenario.Distortion.Apply(x))
	z := l.Scenario.HF.Apply(xAir)
	if _, ok := l.Tag.TryWake(z[:packetStart+tag.SilentSamples]); !ok {
		l.m.failWake.Inc()
		return nil, ErrTagNoWake
	}
	m, plan, err := l.Tag.ModulationSequence(packetLen, payload)
	if err != nil {
		return nil, err
	}
	l.inj.ApplyTagPhaseNoise(m)
	l.inj.CorruptPreamble(m, plan.SilentEnd, l.Tag.Cfg.PreambleChips, tag.ChipSamples)
	mFull := make([]complex128, len(x))
	copy(mFull[packetStart:], m)
	bs := l.Scenario.HB.Apply(tag.Backscatter(z, mFull))
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
	pr := &PacketResult{
		Decode:            res,
		Sent:              payload,
		PayloadOK:         res.FrameOK && bytesEqual(res.Payload, payload),
		Delivered:         res.FrameOK && bytesEqual(res.Payload, payload),
		ExcitationSamples: packetLen,
		TagAirtimeSec:     float64(plan.End()-plan.SilentEnd) / tag.SampleRate,
		ExpectedSNRdB:     l.Scenario.ExpectedSNRdB(),
		MeasuredSNRdB:     res.SNRdB,
	}
	pr.liftDiagnostics(res)
	// Oracle post-MRC SNR against the measured floor, as in RunPacket.
	sps := l.Tag.Cfg.SamplesPerSymbol()
	guard := l.Cfg.Reader.ChannelTaps
	if guard > sps/2 {
		guard = sps / 2
	}
	pr.ExpectedMRCSNRdB = dsp.SNRdB(l.Scenario.BackscatterRxPowerW(), dsp.UnDBm(pr.SICResidualDBm)) + dsp.DB(float64(sps-guard))
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
