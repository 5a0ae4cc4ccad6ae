package sic

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/linalg"
)

func TestReusableMatchesTrainCancel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	txW := dsp.UnDBm(20)
	x := testSignal(r, 4000, txW)
	henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
	noiseW := channel.ThermalNoiseW(20e6, 6)
	noise := channel.NewAWGN(r, noiseW)
	y := noise.Add(henv.Apply(x))

	cfg := DefaultConfig()
	ref, err := Train(cfg, x, x, y, 0, 320)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Cancel(x, x, y)

	ru, err := NewReusable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ru.Retrain(x, x, y, 0, 320); err != nil {
		t.Fatal(err)
	}
	got := ru.CancelRange(nil, x, x, y, 0, len(y))

	// Fast normal-equation assembly reorders the Gram sums, so taps agree
	// to solver precision, not bit-for-bit; the cancelled residue must
	// match to well below the thermal floor (~1e-13 W scale).
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > 1e-6 {
			t.Fatalf("sample %d differs by %g: fast %v vs reference %v", i, d, got[i], want[i])
		}
	}
	rr, wr := ru.Report(), ref.Report()
	if diff := rr.CancellationDB - wr.CancellationDB; diff > 0.5 || diff < -0.5 {
		t.Fatalf("cancellation depth: fast %v dB vs reference %v dB", rr.CancellationDB, wr.CancellationDB)
	}
}

func TestReusableWindowedCancelMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	x := testSignal(r, 3000, dsp.UnDBm(20))
	henv := channel.RayleighTaps(r, 8, 0.5).Scale(-25)
	y := henv.Apply(x)

	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ru.Retrain(x, x, y, 0, 320); err != nil {
		t.Fatal(err)
	}
	full := ru.CancelRange(nil, x, x, y, 0, len(y))
	fullCopy := make([]complex128, len(full))
	copy(fullCopy, full)
	win := ru.CancelRange(nil, x, x, y, 700, 1900)
	for i := 700; i < 1900; i++ {
		if win[i] != fullCopy[i] {
			t.Fatalf("sample %d: windowed %v vs full %v", i, win[i], fullCopy[i])
		}
	}
}

func TestReusableRetrainTracksChannelChange(t *testing.T) {
	// The whole point of Reusable is per-frame retraining: after the
	// channel changes, a retrained canceller must cancel the new channel
	// as deeply as a fresh Train would.
	r := rand.New(rand.NewSource(33))
	x := testSignal(r, 3000, dsp.UnDBm(20))
	h1 := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
	h2 := channel.RayleighTaps(r, 8, 0.5).Scale(-20)

	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ru.Retrain(x, x, h1.Apply(x), 0, 320); err != nil {
		t.Fatal(err)
	}
	y2 := h2.Apply(x)
	if err := ru.Retrain(x, x, y2, 0, 320); err != nil {
		t.Fatal(err)
	}
	resid := ru.CancelRange(nil, x, x, y2, 320, len(y2))
	residDBm := dsp.DBm(dsp.Power(resid[320:]))
	beforeDBm := dsp.DBm(dsp.Power(y2[320:]))
	if beforeDBm-residDBm < 60 {
		t.Fatalf("retrained canceller achieves only %v dB on the new channel", beforeDBm-residDBm)
	}
}

func TestReusableZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	x := testSignal(r, 3000, dsp.UnDBm(20))
	henv := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
	y := henv.Apply(x)

	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, len(y))
	if err := ru.Retrain(x, x, y, 0, 320); err != nil {
		t.Fatal(err)
	}
	dst = ru.CancelRange(dst, x, x, y, 320, 2000)
	allocs := testing.AllocsPerRun(10, func() {
		if err := ru.Retrain(x, x, y, 0, 320); err != nil {
			t.Fatal(err)
		}
		dst = ru.CancelRange(dst, x, x, y, 320, 2000)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Retrain+CancelRange allocates %v per run, want 0", allocs)
	}
}

func TestNewReusableValidates(t *testing.T) {
	if _, err := NewReusable(Config{DigitalTaps: 0}); err == nil {
		t.Fatal("want error for missing digital stage")
	}
}

// distortedPair returns an ideal transmit copy, a PA-output copy with
// independent distortion, and their receive signal through h_env.
func distortedPair(r *rand.Rand, n int) (xTap, xIdeal, y []complex128) {
	xIdeal = testSignal(r, n, dsp.UnDBm(20))
	xTap = make([]complex128, n)
	for i, v := range xIdeal {
		xTap[i] = v + 1e-3*complex(r.NormFloat64(), r.NormFloat64())
	}
	henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
	noise := channel.NewAWGN(r, channel.ThermalNoiseW(20e6, 6))
	return xTap, xIdeal, noise.Add(henv.Apply(xTap))
}

func TestRetrainWithMemoizedFactorsMatchesToeplitzLSFast(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	xTap, xIdeal, y := distortedPair(r, 3000)
	cfg := DefaultConfig()
	const start, stop = 200, 520
	e := NewExcitation(dsp.NewOLSGrid(32), xTap, xIdeal)
	ru, err := NewReusable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two frames on the same excitation: the second reuses both factors.
	for frame := 0; frame < 2; frame++ {
		yf := append([]complex128(nil), y...)
		for i := range yf {
			yf[i] += complex(float64(frame)*1e-4, 0)
		}
		if err := ru.RetrainWith(e, yf, start, stop); err != nil {
			t.Fatal(err)
		}
		var ws linalg.ToeplitzWorkspace
		hA, err := linalg.ToeplitzLSFast(&ws, xTap, yf, cfg.AnalogTaps, start, stop, cfg.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		wantA := quantizeTaps(hA, cfg.AnalogMagBits, cfg.AnalogPhaseBits)
		for i := range wantA {
			if ru.analog[i] != wantA[i] {
				t.Fatalf("frame %d analog tap %d: memoized %v vs ToeplitzLSFast %v", frame, i, ru.analog[i], wantA[i])
			}
		}
		// The digital stage fits the residue of the quantized analog
		// stage, reconstructed by direct convolution.
		work := dsp.Sub(yf, dsp.ConvolveSame(xTap, wantA))
		hD, err := linalg.ToeplitzLSFast(&ws, xIdeal, work, cfg.DigitalTaps, start, stop, cfg.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hD {
			if ru.digital[i] != hD[i] {
				t.Fatalf("frame %d digital tap %d: memoized %v vs ToeplitzLSFast %v", frame, i, ru.digital[i], hD[i])
			}
		}
	}
}

func TestExcitationMemoMatchesPerCall(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	xTap, xIdeal, y := distortedPair(r, 4000)
	cfg := DefaultConfig()
	memo, err := NewReusable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per, err := NewReusable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExcitation(dsp.NewOLSGrid(max(cfg.AnalogTaps, cfg.DigitalTaps)), xTap, xIdeal)
	for frame := 0; frame < 3; frame++ {
		if err := memo.RetrainWith(e, y, 100, 420); err != nil {
			t.Fatal(err)
		}
		if err := per.Retrain(xTap, xIdeal, y, 100, 420); err != nil {
			t.Fatal(err)
		}
		if memo.Report() != per.Report() {
			t.Fatalf("frame %d: reports differ: %+v vs %+v", frame, memo.Report(), per.Report())
		}
		a := memo.CancelRangeWith(nil, e, y, 400, 3100)
		b := per.CancelRange(nil, xTap, xIdeal, y, 400, 3100)
		for i := 400; i < 3100; i++ {
			if a[i] != b[i] {
				t.Fatalf("frame %d sample %d: memoized %v vs per-call %v", frame, i, a[i], b[i])
			}
		}
		y = append(y[:0:0], y...)
		y[150] += 1e-3
	}
}

func TestReusableWithZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	xTap, xIdeal, y := distortedPair(r, 3000)
	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewExcitation(dsp.NewOLSGrid(32), xTap, xIdeal)
	dst := make([]complex128, len(y))
	if err := ru.RetrainWith(e, y, 0, 320); err != nil {
		t.Fatal(err)
	}
	dst = ru.CancelRangeWith(dst, e, y, 300, 2400)
	allocs := testing.AllocsPerRun(10, func() {
		if err := ru.RetrainWith(e, y, 0, 320); err != nil {
			t.Fatal(err)
		}
		dst = ru.CancelRangeWith(dst, e, y, 300, 2400)
	})
	if allocs != 0 {
		t.Fatalf("warm RetrainWith+CancelRangeWith allocates %v per run, want 0", allocs)
	}
}

func TestRetrainWithRejectsSmallGrid(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	xTap, xIdeal, y := distortedPair(r, 1000)
	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ru.RetrainWith(NewExcitation(dsp.NewOLSGrid(8), xTap, xIdeal), y, 0, 320); err == nil {
		t.Fatal("want error for a grid shorter than the digital stage")
	}
}

// BenchmarkReusableHotFrame is one warm hot-path frame of the
// canceller on a cached excitation: retrain on the silent window, then
// cancel a 4.2k-sample decode window. CI gates it at 0 allocs/op.
func BenchmarkReusableHotFrame(b *testing.B) {
	r := rand.New(rand.NewSource(39))
	xTap, xIdeal, y := distortedPair(r, 12000)
	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := NewExcitation(dsp.NewOLSGrid(32), xTap, xIdeal)
	const ps = 2000
	dst := make([]complex128, len(y))
	frame := func() {
		if err := ru.RetrainWith(e, y, ps, ps+320); err != nil {
			b.Fatal(err)
		}
		dst = ru.CancelRangeWith(dst, e, y, ps+300, ps+4500)
	}
	frame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// BenchmarkReusableSliceFrame is the same frame through the slice API
// (per-call spectra and factors).
func BenchmarkReusableSliceFrame(b *testing.B) {
	r := rand.New(rand.NewSource(39))
	xTap, xIdeal, y := distortedPair(r, 12000)
	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const ps = 2000
	dst := make([]complex128, len(y))
	frame := func() {
		if err := ru.Retrain(xTap, xIdeal, y, ps, ps+320); err != nil {
			b.Fatal(err)
		}
		dst = ru.CancelRange(dst, xTap, xIdeal, y, ps+300, ps+4500)
	}
	frame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}
