package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// freqConvolve is SumRangeInto for one term over [lo, hi) with fresh
// per-call spectra.
func freqConvolve(x, h []complex128, maxTaps, lo, hi int) []complex128 {
	g := NewOLSGrid(maxTaps)
	var s BlockSpectra
	s.Reset(g, x)
	out := make([]complex128, hi-lo)
	var f FreqConv
	f.SumRangeInto(out, lo, FreqTerm{X: &s, H: g.FilterSpectrumInto(nil, h)})
	return out
}

// checkNearDirect fails unless got (samples [lo, hi)) is within 1e-12
// of the direct form's output RMS over that window.
func checkNearDirect(t *testing.T, x, h, got []complex128, lo, hi int) {
	t.Helper()
	want := ConvolveRangeInto(nil, x, h, lo, hi)[lo:hi]
	var p float64
	for _, v := range want {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	rms := math.Sqrt(p / float64(len(want)))
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > 1e-12*rms || math.IsNaN(d) {
			t.Fatalf("taps %d window [%d,%d) sample %d: freq %v vs direct %v (|Δ| %g, rms %g)",
				len(h), lo, hi, lo+i, got[i], want[i], d, rms)
		}
	}
}

func TestOLSForwardIsBitReversedDFT(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, taps := range []int{1, 3, 16, 32} {
		g := NewOLSGrid(taps)
		x := randSignal(r, g.n)
		a := append([]complex128(nil), x...)
		g.forward(a)
		want := FFT(x)
		shift := 64 - uint(bits.TrailingZeros(uint(g.n)))
		for i, v := range a {
			k := int(bits.Reverse64(uint64(i)) >> shift)
			if cmplx.Abs(v-want[k]) > 1e-12*float64(g.n) {
				t.Fatalf("N=%d bin %d: %v vs FFT %v", g.n, k, v, want[k])
			}
		}
		g.inverse(a)
		for i := range a {
			if v := a[i] / complex(float64(g.n), 0); cmplx.Abs(v-x[i]) > 1e-12 {
				t.Fatalf("N=%d sample %d: round trip %v vs %v", g.n, i, v, x[i])
			}
		}
	}
}

func TestFreqConvolveMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	x := randSignal(r, 700)
	for taps := 1; taps <= 33; taps++ {
		h := randSignal(r, taps)
		g := NewOLSGrid(taps)
		step := g.step
		for _, win := range [][2]int{
			{0, len(x)},               // full signal, lo=0 and hi=len(x)
			{0, 1},                    // first sample only
			{step - 1, step + 1},      // straddles the first block edge
			{2*step - 3, 4*step + 2},  // straddles several edges
			{step, 2 * step},          // exactly one block
			{len(x) - 5, len(x)},      // tail
			{len(x) / 3, len(x) / 3},  // empty
			{taps - 1, len(x) - taps}, // past the transient
		} {
			lo, hi := min(win[0], len(x)), min(win[1], len(x))
			got := freqConvolve(x, h, taps, lo, hi)
			if hi > lo {
				checkNearDirect(t, x, h, got, lo, hi)
			}
		}
	}
}

func TestFreqConvolveShortFilterOnWideGrid(t *testing.T) {
	// A grid sized for the longest filter serves shorter ones too (the
	// hot path convolves its 10-tap h_env on the 32-tap SIC grid).
	r := rand.New(rand.NewSource(43))
	x := randSignal(r, 1000)
	h := randSignal(r, 10)
	got := freqConvolve(x, h, 32, 0, len(x))
	checkNearDirect(t, x, h, got, 0, len(x))
}

func TestFreqConvolveWindowsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	x := randSignal(r, 1500)
	h := randSignal(r, 32)
	g := NewOLSGrid(32)
	H := g.FilterSpectrumInto(nil, h)
	full := freqConvolve(x, h, 32, 0, len(x))

	// Split windows on memoized spectra, visited out of order, must
	// reproduce the one-shot full-range call bit for bit.
	memo := NewBlockSpectra(g, x)
	var f FreqConv
	split := make([]complex128, len(x))
	for _, win := range [][2]int{{700, 1500}, {0, 97}, {97, 350}, {350, 700}} {
		f.SumRangeInto(split[win[0]:win[1]], win[0], FreqTerm{X: memo, H: H})
	}
	for i := range full {
		if split[i] != full[i] {
			t.Fatalf("sample %d: split memoized %v vs one-shot %v", i, split[i], full[i])
		}
	}

	// Memoized spectra equal per-call spectra bit for bit.
	var per BlockSpectra
	per.Reset(g, x)
	for b := range memo.memo {
		m, p := memo.Block(b), per.Block(b)
		for k := range m {
			if m[k] != p[k] {
				t.Fatalf("block %d bin %d: memoized %v vs per-call %v", b, k, m[k], p[k])
			}
		}
	}
}

func TestFreqConvolveSumOfTerms(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	x1, x2 := randSignal(r, 900), randSignal(r, 900)
	h1, h2 := randSignal(r, 16), randSignal(r, 32)
	g := NewOLSGrid(32)
	var s1, s2 BlockSpectra
	s1.Reset(g, x1)
	s2.Reset(g, x2)
	var f FreqConv
	lo, hi := 130, 777
	got := make([]complex128, hi-lo)
	f.SumRangeInto(got, lo, FreqTerm{X: &s1, H: g.FilterSpectrumInto(nil, h1)}, FreqTerm{X: &s2, H: g.FilterSpectrumInto(nil, h2)})
	a := ConvolveRangeInto(nil, x1, h1, lo, hi)
	b := ConvolveRangeInto(nil, x2, h2, lo, hi)
	for i := range got {
		want := a[lo+i] + b[lo+i]
		if cmplx.Abs(got[i]-want) > 1e-12*cmplx.Abs(want)+1e-12 {
			t.Fatalf("sample %d: %v vs direct sum %v", lo+i, got[i], want)
		}
	}
}

func TestFreqConvZeroAllocWarm(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	x := randSignal(r, 2000)
	g := NewOLSGrid(32)
	H := g.FilterSpectrumInto(nil, randSignal(r, 32))
	memo := NewBlockSpectra(g, x)
	var per BlockSpectra
	per.Reset(g, x)
	var f FreqConv
	out := make([]complex128, 1200)
	f.SumRangeInto(out, 300, FreqTerm{X: memo, H: H}, FreqTerm{X: &per, H: H})
	allocs := testing.AllocsPerRun(20, func() {
		f.SumRangeInto(out, 300, FreqTerm{X: memo, H: H}, FreqTerm{X: &per, H: H})
	})
	if allocs != 0 {
		t.Fatalf("warm SumRangeInto allocates %v per run, want 0", allocs)
	}
}

func FuzzFreqConvolveMatchesDirect(f *testing.F) {
	f.Add(int64(1), uint8(32), uint16(700), uint16(0), uint16(700))
	f.Add(int64(2), uint8(1), uint16(50), uint16(3), uint16(4))
	f.Add(int64(3), uint8(17), uint16(300), uint16(95), uint16(260))
	f.Fuzz(func(t *testing.T, seed int64, taps uint8, n, lo, hi uint16) {
		nt := int(taps)%33 + 1
		nx := int(n)%2048 + 1
		l, h := int(lo)%(nx+1), int(hi)%(nx+1)
		if l > h {
			l, h = h, l
		}
		r := rand.New(rand.NewSource(seed))
		x := randSignal(r, nx)
		filt := randSignal(r, nt)
		got := freqConvolve(x, filt, nt, l, h)
		if h > l {
			checkNearDirect(t, x, filt, got, l, h)
		}
		// The same window on memoized spectra is bit-identical.
		g := NewOLSGrid(nt)
		memo := NewBlockSpectra(g, x)
		again := make([]complex128, h-l)
		var fc FreqConv
		fc.SumRangeInto(again, l, FreqTerm{X: memo, H: g.FilterSpectrumInto(nil, filt)})
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("sample %d: per-call %v vs memoized %v", l+i, got[i], again[i])
			}
		}
	})
}

func BenchmarkFreqConvRange4k(b *testing.B) {
	r := rand.New(rand.NewSource(47))
	x := randSignal(r, 12000)
	g := NewOLSGrid(32)
	A := g.FilterSpectrumInto(nil, randSignal(r, 16))
	D := g.FilterSpectrumInto(nil, randSignal(r, 32))
	tap, ideal := NewBlockSpectra(g, x), NewBlockSpectra(g, x)
	out := make([]complex128, 4200)
	var f FreqConv
	f.SumRangeInto(out, 2000, FreqTerm{X: tap, H: A}, FreqTerm{X: ideal, H: D})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SumRangeInto(out, 2000, FreqTerm{X: tap, H: A}, FreqTerm{X: ideal, H: D})
	}
}

func BenchmarkDirectConvRange4k(b *testing.B) {
	r := rand.New(rand.NewSource(47))
	x := randSignal(r, 12000)
	a, d := randSignal(r, 16), randSignal(r, 32)
	var s1, s2 []complex128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s1 = ConvolveRangeInto(s1, x, a, 2000, 6200)
		s2 = ConvolveRangeInto(s2, x, d, 2000, 6200)
	}
}
