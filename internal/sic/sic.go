// Package sic implements the BackFi AP's two-stage self-interference
// cancellation (paper Sec. 4.2). During the tag's silent period the
// receiver sees only its own transmission through h_env (circulator
// leakage plus environmental reflections); the canceller estimates that
// channel by least squares and subtracts the reconstructed interference
// from the whole packet.
//
// The two stages differ in what copy of the transmission they can use,
// which is the crux of full-duplex hardware [Bharadia'13]:
//
//   - The ANALOG stage taps the power-amplifier output itself, so its
//     reference includes the transmitter's own distortion/noise — it can
//     cancel TX noise — but its FIR taps are implemented with discrete
//     attenuator and phase-shifter steps, so its depth is
//     quantization-limited.
//   - The DIGITAL stage subtracts in baseband using the ideal
//     transmitted samples at full numeric precision, but it can never
//     remove the TX-noise part of the residue because it has no record
//     of it.
//
// Because training happens only while the tag is silent, the
// backscatter signal is never part of the estimate and is not degraded
// by cancellation — the paper's key protocol point. The residue that
// remains (analog quantization of the TX-noise path plus estimation
// noise from the finite silent window) is the 1.7–2.3 dB degradation
// the paper measures (Fig. 11a); it emerges here rather than being
// hardcoded.
package sic

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/linalg"
	"backfi/internal/obs"
)

// Config tunes the canceller.
type Config struct {
	// AnalogTaps is the RF canceller FIR length.
	AnalogTaps int
	// AnalogPhaseBits quantizes each analog tap's phase to 2^bits
	// steps. AnalogTaps = 0 disables the analog stage.
	AnalogPhaseBits int
	// AnalogMagBits is the attenuator resolution in bits.
	AnalogMagBits int
	// DigitalTaps is the digital canceller FIR length.
	DigitalTaps int
	// Lambda is the ridge regularizer of the LS estimates.
	Lambda float64
	// Obs receives the canceller's health metrics (training-stage
	// durations, residual floor, cancellation depth). Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
	// Trace is the per-frame trace context of the packet being
	// decoded (DESIGN.md §5h); the training sub-stages record spans
	// onto it. The zero value disables tracing at zero cost.
	Trace obs.TraceCtx
}

// Validate checks the canceller configuration. The digital stage is
// mandatory; the analog stage is optional (AnalogTaps = 0) but when
// present its quantizer resolutions must be positive.
func (c Config) Validate() error {
	if c.DigitalTaps <= 0 {
		return fmt.Errorf("sic: digital stage is required (DigitalTaps=%d)", c.DigitalTaps)
	}
	if c.AnalogTaps < 0 {
		return fmt.Errorf("sic: AnalogTaps %d must be non-negative", c.AnalogTaps)
	}
	if c.AnalogTaps > 0 && (c.AnalogPhaseBits < 1 || c.AnalogMagBits < 1) {
		return fmt.Errorf("sic: analog stage needs positive phase/magnitude resolution, got %d/%d bits",
			c.AnalogPhaseBits, c.AnalogMagBits)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("sic: ridge regularizer %v must be non-negative", c.Lambda)
	}
	return nil
}

// DefaultConfig mirrors the full-duplex hardware of [Bharadia'13]: a
// 16-tap analog board with fine attenuator/phase steps (the board's
// tuning achieves ~60 dB of analog suppression) and a 32-tap digital
// stage.
func DefaultConfig() Config {
	return Config{
		AnalogTaps:      16,
		AnalogPhaseBits: 11,
		AnalogMagBits:   11,
		DigitalTaps:     32,
		Lambda:          1e-12,
	}
}

// Report summarizes a cancellation run.
type Report struct {
	// BeforeDBm is the received power in the training window before
	// cancellation.
	BeforeDBm float64
	// AfterAnalogDBm is the power after the analog stage only.
	AfterAnalogDBm float64
	// AfterDBm is the power after analog + digital cancellation.
	AfterDBm float64
	// CancellationDB is the total suppression achieved.
	CancellationDB float64
}

// Canceller holds trained analog and digital channel estimates.
//
// A Canceller reuses an internal scratch buffer between Train and
// Cancel, so one instance must not be shared across goroutines; the
// parallel sweep engine gives every trial its own link (and therefore
// its own canceller).
type Canceller struct {
	cfg     Config
	analog  []complex128
	digital []complex128
	report  Report
	scratch []complex128 // reconstruction buffer reused across calls
}

// Train estimates the self-interference channel from the window
// [start, stop) of the received signal y, during which only the AP's
// own transmission (and noise) is on the air — the tag's silent period.
//
// xTap is the PA-output copy available to the analog canceller
// (including transmit distortion); xIdeal is the clean baseband copy
// the digital stage uses. In an ideal-hardware simulation the two may
// be the same slice.
func Train(cfg Config, xTap, xIdeal, y []complex128, start, stop int) (*Canceller, error) {
	return NewMetrics(cfg.Obs).Train(cfg, xTap, xIdeal, y, start, stop)
}

// Metrics are the canceller's instruments — the two training stages
// (sic_analog_train, sic_digital_train) and the residual/depth
// histograms — resolved once against a registry, so a decoder that
// trains every frame does no registry lookups.
type Metrics struct {
	analogTrain, digitalTrain obs.Stage
	residual, cancellation    *obs.Histogram
}

// NewMetrics resolves the canceller's instruments against r (nil =
// trace-only stages, no histograms).
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		analogTrain:  r.Stage("sic_analog_train"),
		digitalTrain: r.Stage("sic_digital_train"),
		residual:     r.Histogram(obs.MetricSICResidual, "Post-cancellation floor in dBm over the training window.", obs.DBBuckets),
		cancellation: r.Histogram(obs.MetricSICCancellation, "Total self-interference suppression in dB.", obs.DBBuckets),
	}
}

// Train is the package-level Train with m's instruments.
func (m Metrics) Train(cfg Config, xTap, xIdeal, y []complex128, start, stop int) (*Canceller, error) {
	if cfg.DigitalTaps <= 0 {
		return nil, fmt.Errorf("sic: digital stage is required (DigitalTaps=%d)", cfg.DigitalTaps)
	}
	if stop-start < cfg.DigitalTaps*2 {
		return nil, fmt.Errorf("sic: training window of %d samples too short for %d taps", stop-start, cfg.DigitalTaps)
	}
	c := &Canceller{cfg: cfg}
	c.report.BeforeDBm = dsp.DBm(dsp.Power(y[start:stop]))

	work := y
	if cfg.AnalogTaps > 0 {
		sp := m.analogTrain.Start(cfg.Trace)
		hA, err := linalg.ToeplitzLS(xTap, y, cfg.AnalogTaps, start, stop, cfg.Lambda)
		if err != nil {
			return nil, fmt.Errorf("sic: analog estimate: %w", err)
		}
		c.analog = quantizeTaps(hA, cfg.AnalogMagBits, cfg.AnalogPhaseBits)
		c.scratch = dsp.ConvolveSameInto(c.scratch, xTap, c.analog)
		work = dsp.Sub(y, c.scratch)
		c.report.AfterAnalogDBm = dsp.DBm(dsp.Power(work[start:stop]))
		sp.End()
	} else {
		c.report.AfterAnalogDBm = c.report.BeforeDBm
	}

	sp := m.digitalTrain.Start(cfg.Trace)
	hD, err := linalg.ToeplitzLS(xIdeal, work, cfg.DigitalTaps, start, stop, cfg.Lambda)
	if err != nil {
		return nil, fmt.Errorf("sic: digital estimate: %w", err)
	}
	c.digital = hD
	c.scratch = dsp.ConvolveSameInto(c.scratch, xIdeal, hD)
	resid := dsp.Sub(work[start:stop], c.scratch[start:stop])
	c.report.AfterDBm = dsp.DBm(dsp.Power(resid))
	c.report.CancellationDB = c.report.BeforeDBm - c.report.AfterDBm
	sp.End()

	// Canceller health: the residual floor is the paper's Fig. 7
	// quantity (≈ thermal floor when cancellation works), and the
	// achieved depth is its ≈78–80 dB headline.
	m.residual.Observe(c.report.AfterDBm)
	m.cancellation.Observe(c.report.CancellationDB)
	return c, nil
}

// Cancel subtracts the reconstructed self-interference from the whole
// received signal, using the same transmit copies as Train. y is not
// modified.
func (c *Canceller) Cancel(xTap, xIdeal, y []complex128) []complex128 {
	var out []complex128
	if len(c.analog) > 0 {
		c.scratch = dsp.ConvolveSameInto(c.scratch, xTap, c.analog)
		out = dsp.Sub(y, c.scratch)
		c.scratch = dsp.ConvolveSameInto(c.scratch, xIdeal, c.digital)
		dsp.SubInPlace(out, c.scratch)
		return out
	}
	c.scratch = dsp.ConvolveSameInto(c.scratch, xIdeal, c.digital)
	return dsp.Sub(y, c.scratch)
}

// Report returns the training-window power summary.
func (c *Canceller) Report() Report { return c.report }

// EstimatedChannel returns the combined analog+digital h_env estimate.
func (c *Canceller) EstimatedChannel() []complex128 {
	n := max(len(c.analog), len(c.digital))
	out := make([]complex128, n)
	for i, v := range c.analog {
		out[i] += v
	}
	for i, v := range c.digital {
		out[i] += v
	}
	return out
}

// quantizeTaps models analog tuning hardware: each tap's magnitude is
// quantized to 2^magBits uniform steps of the maximum magnitude, and
// its phase to 2^phaseBits steps.
func quantizeTaps(taps []complex128, magBits, phaseBits int) []complex128 {
	out := make([]complex128, len(taps))
	maxMag := 0.0
	for _, t := range taps {
		if m := cmplx.Abs(t); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		return out
	}
	magSteps := float64(int(1) << uint(magBits))
	phaseSteps := float64(int(1) << uint(phaseBits))
	for i, t := range taps {
		m := cmplx.Abs(t)
		ph := cmplx.Phase(t)
		qm := math.Round(m/maxMag*magSteps) / magSteps * maxMag
		qp := math.Round(ph/(2*math.Pi)*phaseSteps) / phaseSteps * 2 * math.Pi
		out[i] = cmplx.Rect(qm, qp)
	}
	return out
}
