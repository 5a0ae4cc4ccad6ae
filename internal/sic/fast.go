package sic

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/linalg"
	"backfi/internal/obs"
)

// Reusable is the serving hot path's canceller: one instance per
// session that is retrained every frame (the AR(1) channel decorrelates
// too fast for stale taps to survive a step) but reuses every buffer —
// tap vectors, filter spectra, training-window scratch — so
// steady-state retraining allocates nothing. It also works over sample
// windows: training reads only the silent window and CancelRange
// reconstructs interference only where the decoder will look, instead
// of over the whole capture.
//
// Everything that depends on the transmission alone lives in an
// Excitation: the overlap-save block spectra of both transmit copies
// and the Cholesky factors of both stages' Gram matrices. A caller
// that transmits one cached waveform frame after frame keeps one
// Excitation beside it and calls RetrainWith/CancelRangeWith, so each
// frame costs only Aᴴy, two triangular solves and the training
// window's two short reconstructions, two filter transforms, and one
// inverse transform per reconstructed block. Retrain and CancelRange
// take the transmit copies as slices and compute the same numbers from
// per-call spectra and factors.
//
// Numerics: the taps solve the same ridge normal equations as Train
// via linalg.ToeplitzFactor, bit-identical to linalg.ToeplitzLSFast,
// which sums the Gram in a different order than Train. CancelRange's
// reconstruction is the overlap-save product (dsp.FreqConv), equal to
// the direct convolution to rounding. Results are deterministic but
// not bit-identical to Train/Cancel; the fast serve path owns its
// determinism contract end to end (see DESIGN.md §5g).
//
// Not safe for concurrent use; the reader daemon keys one per session,
// and sessions are serialized per shard.
type Reusable struct {
	cfg     Config
	m       Metrics
	analog  []complex128
	digital []complex128
	report  Report

	// grid is the per-call grid, sized for the two stages' filters.
	grid    dsp.OLSGrid
	perCall Excitation
	conv    dsp.FreqConv
	// specA/specD are the current taps' spectra on specGrid.
	specA, specD []complex128
	specGrid     dsp.OLSGrid
	// work/recon hold the training window's analog residue and
	// digital reconstruction (window-sized, plus filter look-back).
	work, recon []complex128
}

// Excitation is the per-transmission state of the reusable canceller:
// block spectra of the PA-output copy xTap and the ideal copy xIdeal,
// and each stage's Gram factor, which depends only on its transmit
// copy, the training window, the tap count and λ. Its owner keeps it
// beside the waveform it describes and drops it with that waveform;
// the canceller never caches anything keyed on the slices it is given.
// Not safe for concurrent use: spectra and factors fill lazily.
type Excitation struct {
	tap, ideal      *dsp.BlockSpectra
	analog, digital linalg.ToeplitzFactor
	// memo keeps factors across calls; the per-call Excitation
	// refactors on every Retrain.
	memo bool
}

// NewExcitation returns the memoizing excitation state of xTap and
// xIdeal (equal lengths) on grid, which must serve the canceller's
// longest filter. Neither slice may change while it is in use.
func NewExcitation(grid dsp.OLSGrid, xTap, xIdeal []complex128) *Excitation {
	return &Excitation{
		tap:   dsp.NewBlockSpectra(grid, xTap),
		ideal: dsp.NewBlockSpectra(grid, xIdeal),
		memo:  true,
	}
}

// Tap returns the block spectra of the PA-output copy, which a
// simulator can reuse for its own convolutions of that waveform.
func (e *Excitation) Tap() *dsp.BlockSpectra { return e.tap }

// XTap and XIdeal return the transmit copies.
func (e *Excitation) XTap() []complex128 { return e.tap.Signal() }

// XIdeal returns the ideal transmit copy.
func (e *Excitation) XIdeal() []complex128 { return e.ideal.Signal() }

// factor makes f the factor of x for the given stage parameters,
// reusing a memoized one when it matches.
func (e *Excitation) factor(f *linalg.ToeplitzFactor, x []complex128, ntaps, start, stop int, lambda float64) error {
	if e.memo && f.Matches(ntaps, start, stop, lambda) {
		return nil
	}
	return f.Factor(x, ntaps, start, stop, lambda)
}

// NewReusable validates cfg and returns an untrained reusable
// canceller. Call Retrain before CancelRange.
func NewReusable(cfg Config) (*Reusable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reusable{
		cfg:     cfg,
		m:       NewMetrics(cfg.Obs),
		analog:  make([]complex128, cfg.AnalogTaps),
		digital: make([]complex128, cfg.DigitalTaps),
		grid:    dsp.NewOLSGrid(max(cfg.AnalogTaps, cfg.DigitalTaps)),
		perCall: Excitation{tap: new(dsp.BlockSpectra), ideal: new(dsp.BlockSpectra)},
	}, nil
}

// SetTrace points subsequent Retrain calls at the per-frame trace
// context (DESIGN.md §5h). The zero value disables tracing; the ctx is
// a 2-word copy, so per-frame reassignment costs nothing.
func (c *Reusable) SetTrace(t obs.TraceCtx) { c.cfg.Trace = t }

// PerCall points the receiver's per-call Excitation at xTap/xIdeal and
// returns it: spectra and factors are recomputed on every use. It is
// valid until the next PerCall.
func (c *Reusable) PerCall(xTap, xIdeal []complex128) *Excitation {
	c.perCall.tap.Reset(c.grid, xTap)
	c.perCall.ideal.Reset(c.grid, xIdeal)
	return &c.perCall
}

// Retrain re-estimates both cancellation stages from the silent window
// [start, stop) of y, exactly as Train does but into the receiver's
// preallocated state. xTap/xIdeal are the PA-output and ideal transmit
// copies; only their samples up to stop are read.
func (c *Reusable) Retrain(xTap, xIdeal, y []complex128, start, stop int) error {
	return c.RetrainWith(c.PerCall(xTap, xIdeal), y, start, stop)
}

// RetrainWith is Retrain against e's transmit copies, reusing e's Gram
// factors when e memoizes them.
func (c *Reusable) RetrainWith(e *Excitation, y []complex128, start, stop int) error {
	cfg := c.cfg
	if stop-start < cfg.DigitalTaps*2 {
		return fmt.Errorf("sic: training window of %d samples too short for %d taps", stop-start, cfg.DigitalTaps)
	}
	if start < 0 || stop > len(y) || stop > len(e.XIdeal()) {
		return fmt.Errorf("sic: training window [%d,%d) outside %d samples", start, stop, min(len(y), len(e.XIdeal())))
	}
	g := e.ideal.Grid()
	if g.MaxTaps() < max(cfg.AnalogTaps, cfg.DigitalTaps) {
		return fmt.Errorf("sic: overlap-save grid serves %d taps, canceller needs %d", g.MaxTaps(), max(cfg.AnalogTaps, cfg.DigitalTaps))
	}
	yw := y[start:stop]
	c.report.BeforeDBm = dsp.DBm(dsp.Power(yw))

	work := yw
	if cfg.AnalogTaps > 0 {
		sp := c.m.analogTrain.Start(cfg.Trace)
		if err := e.factor(&e.analog, e.XTap(), cfg.AnalogTaps, start, stop, cfg.Lambda); err != nil {
			return fmt.Errorf("sic: analog estimate: %w", err)
		}
		quantizeTapsInto(c.analog, e.analog.Solve(yw), cfg.AnalogMagBits, cfg.AnalogPhaseBits)
		c.work, work = convolveWindow(c.work, e.XTap(), c.analog, start, stop)
		for i, v := range yw {
			work[i] = v - work[i]
		}
		c.report.AfterAnalogDBm = dsp.DBm(dsp.Power(work))
		sp.End()
	} else {
		c.report.AfterAnalogDBm = c.report.BeforeDBm
	}

	sp := c.m.digitalTrain.Start(cfg.Trace)
	if err := e.factor(&e.digital, e.XIdeal(), cfg.DigitalTaps, start, stop, cfg.Lambda); err != nil {
		return fmt.Errorf("sic: digital estimate: %w", err)
	}
	copy(c.digital, e.digital.Solve(work))
	var recon []complex128
	c.recon, recon = convolveWindow(c.recon, e.XIdeal(), c.digital, start, stop)
	var pw float64
	for i, v := range work {
		r := v - recon[i]
		pw += real(r)*real(r) + imag(r)*imag(r)
	}
	c.report.AfterDBm = dsp.DBm(pw / float64(stop-start))
	c.report.CancellationDB = c.report.BeforeDBm - c.report.AfterDBm
	sp.End()

	c.specA = g.FilterSpectrumInto(c.specA, c.analog)
	c.specD = g.FilterSpectrumInto(c.specD, c.digital)
	c.specGrid = g
	return nil
}

// CancelRange writes y minus the reconstructed self-interference over
// samples [lo, hi) into dst (grown to len(y) if needed; samples outside
// the window are left as-is) and returns dst. The reconstruction uses
// the taps from the latest Retrain.
func (c *Reusable) CancelRange(dst, xTap, xIdeal, y []complex128, lo, hi int) []complex128 {
	return c.CancelRangeWith(dst, c.PerCall(xTap, xIdeal), y, lo, hi)
}

// CancelRangeWith is CancelRange against e's transmit copies: both
// stages' reconstructions are summed per block in the frequency domain
// and share one inverse transform.
func (c *Reusable) CancelRangeWith(dst []complex128, e *Excitation, y []complex128, lo, hi int) []complex128 {
	if cap(dst) < len(y) {
		dst = make([]complex128, len(y))
	}
	dst = dst[:len(y)]
	lo = max(lo, 0)
	hi = min(hi, len(y), len(e.XIdeal()))
	if lo >= hi {
		return dst
	}
	if g := e.ideal.Grid(); g != c.specGrid {
		// Trained on another grid: move the taps' spectra over.
		c.specA = g.FilterSpectrumInto(c.specA, c.analog)
		c.specD = g.FilterSpectrumInto(c.specD, c.digital)
		c.specGrid = g
	}
	out := dst[lo:hi]
	if c.cfg.AnalogTaps > 0 {
		c.conv.SumRangeInto(out, lo, dsp.FreqTerm{X: e.tap, H: c.specA}, dsp.FreqTerm{X: e.ideal, H: c.specD})
	} else {
		c.conv.SumRangeInto(out, lo, dsp.FreqTerm{X: e.ideal, H: c.specD})
	}
	for i, v := range y[lo:hi] {
		out[i] = v - out[i]
	}
	return dst
}

// Report returns the training-window power summary of the last Retrain.
func (c *Reusable) Report() Report { return c.report }

// convolveWindow computes samples [start, stop) of the causal x⊛h
// directly, bit-identical to dsp.ConvolveRangeInto over the whole of x,
// into buf sized to the window plus the filter's look-back. It returns
// the buffer (for reuse) and the window's samples within it. A 320-sample
// training window is too short for overlap-save to pay: its blocks'
// transforms cost as much as the direct sums.
func convolveWindow(buf, x, h []complex128, start, stop int) (grown, win []complex128) {
	s0 := max(0, start-len(h)+1)
	grown = dsp.ConvolveRangeInto(buf, x[s0:stop], h, start-s0, stop-s0)
	return grown, grown[start-s0:]
}

// quantizeTapsInto is quantizeTaps writing into a caller-owned slice
// (len(dst) == len(taps)) so the hot path's per-frame analog
// requantization allocates nothing.
func quantizeTapsInto(dst, taps []complex128, magBits, phaseBits int) {
	maxMag := 0.0
	for _, t := range taps {
		if m := cmplx.Abs(t); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	magSteps := float64(int(1) << uint(magBits))
	phaseSteps := float64(int(1) << uint(phaseBits))
	for i, t := range taps {
		m := cmplx.Abs(t)
		ph := cmplx.Phase(t)
		qm := math.Round(m/maxMag*magSteps) / magSteps * maxMag
		qp := math.Round(ph/(2*math.Pi)*phaseSteps) / phaseSteps * 2 * math.Pi
		dst[i] = cmplx.Rect(qm, qp)
	}
}
