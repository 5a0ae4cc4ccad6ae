package reader

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/linalg"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// headerGuardSteps is how far past the 16-bit length header the
// bounded first Viterbi pass extends before tracing back. Several
// constraint lengths of lookahead make the unterminated traceback of
// the header bits as reliable as the legacy full-frame pass at the
// SNRs where frames decode at all.
const headerGuardSteps = 8 * fec.TailBits

// timingPasses bounds the timing-search refinement: each pass may move
// the preamble start by up to ±TimingSearch samples.
const timingPasses = 3

// Stream is the serving hot path's per-session decoder. It wraps a
// Reader with state that amortizes across frames of one session:
//
//   - a sic.Reusable canceller retrained every frame with no
//     steady-state allocation, against a caller-owned sic.Excitation
//     (DecodeWith) whose spectra and Gram factors persist across frames
//     of one cached waveform;
//   - clean/reference/estimate scratch buffers reused across calls;
//   - normal-equation scratch for the combined-channel estimate;
//   - windowed processing: instead of cancelling and correlating over
//     the whole capture, it processes [packetStart, header) first,
//     reads the frame length from a bounded Viterbi pass, and extends
//     the window to exactly the samples the frame occupies.
//
// Results are deterministic for identical inputs but NOT bit-identical
// to Reader.Decode: the fast canceller assembles its normal equations
// in a different summation order and reconstructs by overlap-save,
// and symbol estimates stop at the frame boundary instead of covering
// the tag's post-frame silence (Result.SymbolEstimates holds only the
// frame's symbols). The fast serve path pins its own determinism
// contract (DESIGN.md §5g).
//
// Slices in a returned Result (SymbolEstimates, Hfb) alias the
// stream's scratch and are valid only until the next Decode call;
// Payload is freshly allocated. Not safe for concurrent use.
type Stream struct {
	r    *Reader
	canc *sic.Reusable

	clean []complex128
	ref   []complex128
	ests  []complex128
	gram  *linalg.Matrix
	rhs   []complex128
	hfb   []complex128
	// dec holds the header pass's trellis so the frame pass resumes
	// from it instead of re-decoding the header steps.
	dec fec.Decoder
	// pn is the PN preamble of tag pnID with len(pn) chips, kept
	// across frames of a session's tag configuration.
	pn   []complex128
	pnID int
}

// NewStream returns a session-scoped streaming decoder sharing r's
// configuration and metrics.
func (r *Reader) NewStream() (*Stream, error) {
	canc, err := sic.NewReusable(r.cfg.SIC)
	if err != nil {
		return nil, err
	}
	L := r.cfg.ChannelTaps
	return &Stream{
		r:    r,
		canc: canc,
		gram: linalg.NewMatrix(L, L),
		rhs:  make([]complex128, L),
		hfb:  make([]complex128, L),
	}, nil
}

// Decode processes one excitation packet with the same stage structure
// and arguments as Reader.Decode, reusing the stream's cached state.
// The canceller's spectra and factors are computed afresh for x/xTap;
// DecodeWith gives the same result from ones kept across frames.
func (s *Stream) Decode(x, xTap, y []complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	return s.DecodeWith(s.canc.PerCall(xTap, x), y, packetStart, packetLen, tcfg)
}

// DecodeWith is Decode against exc's transmit copies (XIdeal is x,
// XTap is xTap). exc belongs to the caller, who keeps it as long as it
// keeps the waveform; the stream holds no reference past the call.
func (s *Stream) DecodeWith(exc *sic.Excitation, y []complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	r := s.r
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	x := exc.XIdeal()
	if len(x) != len(y) || len(exc.XTap()) != len(y) {
		return nil, fmt.Errorf("reader: x/xTap/y length mismatch %d/%d/%d", len(x), len(exc.XTap()), len(y))
	}
	if packetStart+packetLen > len(x) {
		return nil, fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}

	// Stage 1: retrain the reusable canceller on the silent window.
	tr := r.trace
	s.canc.SetTrace(tr)
	spTrain := r.m.sicTrain.Start(tr)
	err := s.canc.RetrainWith(exc, y, packetStart, packetStart+tag.SilentSamples)
	spTrain.End()
	if err != nil {
		r.m.failSICTrain.Inc()
		return nil, fmt.Errorf("reader: %w", err)
	}

	preStart := packetStart + tag.SilentSamples
	preEnd := preStart + tcfg.PreambleSamples()
	packetEnd := packetStart + packetLen
	if preEnd > packetEnd {
		r.m.failPreamble.Inc()
		return nil, fmt.Errorf("reader: packet too short for tag preamble")
	}

	// Initial window: from the earliest sample a later stage reads to
	// the preamble, timing slack and enough payload symbols for the
	// bounded header pass. Timing search moves the preamble start by
	// at most timingPasses·TimingSearch samples either way; the channel
	// estimate, the timing metric and the header MRC read only from the
	// moved grid, so nothing reads the rest of the silent window.
	sps := tcfg.SamplesPerSymbol()
	bps := tcfg.Mod.BitsPerSymbol()
	headerSoft := fec.PuncturedLength(2*(16+headerGuardSteps), tcfg.Coding)
	headerSyms := (headerSoft + bps - 1) / bps
	slack := timingPasses * r.cfg.TimingSearch
	lo := max(packetStart, preStart-slack)
	hi := preEnd + slack + headerSyms*sps
	if hi > packetEnd {
		hi = packetEnd
	}
	spCancel := r.m.sicCancel.Start(tr)
	s.clean = s.canc.CancelRangeWith(s.clean, exc, y, lo, hi)
	spCancel.End()

	// Stage 2: channel estimation + timing, windowed.
	if s.pn == nil || s.pnID != tcfg.ID || len(s.pn) != tcfg.PreambleChips {
		s.pn, s.pnID = tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips), tcfg.ID
	}
	pn := s.pn
	spEst := r.m.chanEst.Start(tr)
	err = s.estimateHfbInto(x, s.clean, preStart, pn)
	spEst.End()
	if err != nil {
		r.m.failChanEst.Inc()
		return nil, err
	}
	s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, lo, hi)

	spTiming := r.m.timing.Start(tr)
	offset := 0
	for pass := 0; pass < timingPasses; pass++ {
		step := r.searchTiming(s.clean, s.ref, preStart, pn)
		if step == 0 {
			break
		}
		offset += step
		preStart += step
		preEnd += step
		if err := s.estimateHfbInto(x, s.clean, preStart, pn); err == nil {
			s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, lo, hi)
		}
	}
	spTiming.End()
	if offset != 0 {
		r.m.timingAdjusted.Inc()
	}
	r.m.timingOffset.Observe(math.Abs(float64(offset)))

	preCorr := r.preambleCorrelation(s.clean, s.ref, preStart, pn)
	r.m.preambleCorr.Observe(preCorr)

	// Stage 3a: MRC over just the header symbols.
	symStart := preEnd
	guard := min(r.cfg.ChannelTaps, sps/2)
	nAvail := (packetEnd - symStart) / sps
	if nAvail <= 0 {
		r.m.failPayload.Inc()
		return nil, fmt.Errorf("reader: no room for payload symbols")
	}
	nHdr := min(headerSyms, nAvail)
	spMRC := r.m.mrc.Start(tr)
	if cap(s.ests) < nAvail {
		s.ests = make([]complex128, nAvail)
	}
	s.mrcInto(symStart, sps, guard, 0, nHdr)
	spMRC.End()

	// Stage 3b: bounded header pass → frame extent.
	spVit := r.m.viterbi.Start(tr)
	used, infoBits, headerOK := s.frameExtent(s.ests[:nHdr], tcfg)
	spVit.End()
	nSyms := used
	if !headerOK || used > nAvail {
		// A frame we cannot size (noise, or a length header pointing past
		// the packet). Fall back to the legacy whole-capture behavior so
		// failures are diagnosed identically: process everything and let
		// decodeFrame report the failure.
		nSyms = nAvail
	}

	// Extend the processing window to exactly the frame's samples.
	hi2 := symStart + nSyms*sps
	if hi2 > hi {
		spCancel := r.m.sicCancel.Start(tr)
		s.clean = s.canc.CancelRangeWith(s.clean, exc, y, hi, hi2)
		s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, hi, hi2)
		spCancel.End()
	}
	spMRC = r.m.mrc.Start(tr)
	s.mrcInto(symStart, sps, guard, nHdr, nSyms)
	spMRC.End()
	ests := s.ests[:nSyms]

	// Stage 4: terminated decode over the frame symbols.
	spVit = r.m.viterbi.Start(tr)
	var payload []byte
	var corrected int
	frameOK := false
	if headerOK && used <= nAvail {
		frameSoft := tcfg.Mod.DemapSoft(ests)
		if p, err := tag.DecodeFrameBitsWith(&s.dec, frameSoft[:used*bps], tcfg.Coding, infoBits); err == nil {
			payload = p
			corrected = correctedBits(frameSoft[:used*bps], payload, tcfg)
			frameOK = true
		}
	} else {
		payload, used, corrected, frameOK = r.decodeFrame(ests, tcfg)
	}
	spVit.End()
	if frameOK {
		r.m.viterbiBits.Observe(float64(corrected))
	} else {
		r.m.failFrameCRC.Inc()
	}

	res := &Result{
		Payload:              payload,
		FrameOK:              frameOK,
		SymbolEstimates:      ests,
		SIC:                  s.canc.Report(),
		Hfb:                  s.hfb,
		PreambleCorr:         preCorr,
		TimingOffset:         offset,
		ViterbiCorrectedBits: corrected,
	}
	res.SNRdB = symbolSNRdB(ests[:min(used, len(ests))], tcfg.Mod)
	return res, nil
}

// mrcInto fills s.ests[from:to) with the per-symbol MRC estimates
// (paper Eq. 7) from the stream's clean/ref buffers.
func (s *Stream) mrcInto(symStart, sps, guard, from, to int) {
	clean, ref := s.clean, s.ref
	for sym := from; sym < to; sym++ {
		a := symStart + sym*sps + guard
		b := symStart + (sym+1)*sps
		var num complex128
		var den float64
		for n := a; n < b; n++ {
			num += clean[n] * cmplx.Conj(ref[n])
			den += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
		}
		if den > 0 {
			s.ests[sym] = num / complex(den, 0)
		} else {
			s.ests[sym] = 0
		}
	}
}

// frameExtent runs the bounded first Viterbi pass over the header
// symbols and returns the frame's symbol count and info-bit length.
// ok is false when the header cannot be read from the given symbols.
func (s *Stream) frameExtent(hdrEsts []complex128, tcfg tag.Config) (used, infoBits int, ok bool) {
	soft := tcfg.Mod.DemapSoft(hdrEsts)
	steps := maxTrellisSteps(len(soft), tcfg.Coding)
	if steps < 16+fec.TailBits {
		return 0, 0, false
	}
	need := fec.PuncturedLength(2*steps, tcfg.Coding)
	bits, err := s.dec.DecodePunctured(soft[:need], tcfg.Coding, steps, false)
	if err != nil {
		return 0, 0, false
	}
	n := 0
	for i := 0; i < 16; i++ {
		n |= int(bits[i]) << uint(i)
	}
	return tag.SymbolsForPayload(n, tcfg.Coding, tcfg.Mod), tag.FrameInfoBits(n), true
}

// estimateHfbInto solves the same preamble least-squares problem as
// estimateHfb, assembling the normal equations directly into reused
// scratch instead of materializing the convolution matrix. The
// solution lands in s.hfb. Sum order differs from the legacy
// estimator, so taps agree to solver precision, not bit-for-bit.
func (s *Stream) estimateHfbInto(x, clean []complex128, preStart int, pn []complex128) error {
	L := s.r.cfg.ChannelTaps
	g := s.gram
	for i := range g.Data {
		g.Data[i] = 0
	}
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	rows := 0
	for c, chip := range pn {
		chipStart := preStart + c*tag.ChipSamples
		cc := real(chip)*real(chip) + imag(chip)*imag(chip)
		for n := chipStart + L - 1; n < chipStart+tag.ChipSamples; n++ {
			rows++
			// Row k of the design matrix is chip·x[n-k]; accumulate
			// AᴴA (upper triangle) and Aᴴb without building A.
			chipY := cmplx.Conj(chip) * clean[n]
			for k := 0; k < L; k++ {
				xk := x[n-k]
				cxk := cmplx.Conj(xk)
				s.rhs[k] += cxk * chipY
				row := g.Data[k*L:]
				for l := k; l < L; l++ {
					row[l] += complex(cc, 0) * cxk * x[n-l]
				}
			}
		}
	}
	if rows < 2*L {
		return fmt.Errorf("reader: only %d usable preamble samples for %d taps", rows, L)
	}
	for k := 0; k < L; k++ {
		for l := 0; l < k; l++ {
			g.Data[k*L+l] = cmplx.Conj(g.Data[l*L+k])
		}
	}
	copy(s.hfb, s.rhs)
	if err := linalg.SolveHermitianInPlace(g, s.hfb, s.r.cfg.Lambda); err != nil {
		return fmt.Errorf("reader: channel estimate: %w", err)
	}
	return nil
}
