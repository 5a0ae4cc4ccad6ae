package dsp

import "fmt"

// OLSGrid is an overlap-save block grid for causal FIR filters of up
// to M taps. Block b transforms the N input samples starting at
// b·S − (M−1) (zero outside the signal) and yields the "same"-length
// convolution outputs [b·S, (b+1)·S), where S = N − M + 1.
//
// The grid is anchored at absolute sample 0: which block produces an
// output sample, and so every bit of it, depends only on the sample's
// index, never on the window a caller asked for. A window [lo, hi)
// therefore reproduces exactly the samples a full-range call produces,
// and a signal's block spectra can be computed once and reused by every
// window and every filter.
//
// Transforms are a decimation-in-frequency forward pass (natural order
// in, bit-reversed out) and a decimation-in-time inverse pass
// (bit-reversed in, natural out) over the shared FFT plan's twiddles.
// Pointwise products do not care about bin order, so neither pass
// permutes. They are separate from FFTInPlace/IFFTInPlace, whose
// numerics the WiFi PHY and the legacy decoder depend on.
type OLSGrid struct {
	n, taps, step int
	p             *plan
}

// NewOLSGrid returns the grid for filters of at most maxTaps taps (at
// least 1). The block size is the power of two at or above 4·maxTaps:
// large enough that most of each transform yields output, small enough
// that a short window wastes little of its edge blocks.
func NewOLSGrid(maxTaps int) OLSGrid {
	maxTaps = max(maxTaps, 1)
	n := NextPow2(4 * maxTaps)
	return OLSGrid{n: n, taps: maxTaps, step: n - maxTaps + 1, p: planFor(n)}
}

// MaxTaps is the longest filter the grid serves.
func (g OLSGrid) MaxTaps() int { return g.taps }

// FilterSpectrumInto writes the spectrum of h on g into dst (grown to
// N if needed) and returns it. The 1/N inverse normalization is folded
// in; N is a power of two, so that scaling is exact. len(h) must not
// exceed M.
func (g OLSGrid) FilterSpectrumInto(dst, h []complex128) []complex128 {
	if len(h) > g.taps {
		panic(fmt.Sprintf("dsp: %d-tap filter on a %d-tap overlap-save grid", len(h), g.taps))
	}
	if cap(dst) < g.n {
		dst = make([]complex128, g.n)
	}
	dst = dst[:g.n]
	s := 1 / float64(g.n)
	for i, v := range h {
		dst[i] = complex(real(v)*s, imag(v)*s)
	}
	clear(dst[len(h):])
	g.forward(dst)
	return dst
}

// spectrumInto writes block b's input spectrum of x into dst (len N).
func (g OLSGrid) spectrumInto(dst, x []complex128, b int) {
	s0 := b*g.step - (g.taps - 1)
	from, to := max(s0, 0), min(s0+g.n, len(x))
	clear(dst)
	if from < to {
		copy(dst[from-s0:], x[from:to])
	}
	g.forward(dst)
}

// forward is the decimation-in-frequency transform: natural-order
// input, bit-reversed output, forward twiddles exp(−j2πk/size). The
// last two stages (sizes 4 and 2) have the trivial twiddles 1 and −j
// and run as one multiply-free pass.
func (g OLSGrid) forward(a []complex128) {
	tw := g.p.tw
	n := len(a)
	for size := n; size >= 8; size >>= 1 {
		half := size >> 1
		stage := tw[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo := a[start : start+half : start+half]
			hi := a[start+half : start+size : start+size]
			for k, w := range stage {
				u, v := lo[k], hi[k]
				lo[k] = u + v
				hi[k] = (u - v) * w
			}
		}
	}
	if n < 4 {
		if n == 2 {
			a[0], a[1] = a[0]+a[1], a[0]-a[1]
		}
		return
	}
	for start := 0; start < n; start += 4 {
		q := a[start : start+4 : start+4]
		s0, s1 := q[0]+q[2], q[1]+q[3]
		d0, d1 := q[0]-q[2], q[1]-q[3]
		d1 = complex(imag(d1), -real(d1)) // ·(−j)
		q[0], q[1], q[2], q[3] = s0+s1, s0-s1, d0+d1, d0-d1
	}
}

// inverse is the decimation-in-time inverse transform, without the
// 1/n scale: bit-reversed input, natural-order output, conjugated
// twiddles. The first two stages (sizes 2 and 4) have the trivial
// twiddles 1 and +j and run as one multiply-free pass.
func (g OLSGrid) inverse(a []complex128) {
	tw := g.p.tw
	n := len(a)
	if n < 4 {
		if n == 2 {
			a[0], a[1] = a[0]+a[1], a[0]-a[1]
		}
		return
	}
	for start := 0; start < n; start += 4 {
		q := a[start : start+4 : start+4]
		s0, d0 := q[0]+q[1], q[0]-q[1]
		s1, d1 := q[2]+q[3], q[2]-q[3]
		d1 = complex(-imag(d1), real(d1)) // ·(+j)
		q[0], q[1], q[2], q[3] = s0+s1, d0+d1, s0-s1, d0-d1
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo := a[start : start+half : start+half]
			hi := a[start+half : start+size : start+size]
			for k, w := range stage {
				h := hi[k]
				// h·conj(w), spelled out.
				t := complex(real(h)*real(w)+imag(h)*imag(w), imag(h)*real(w)-real(h)*imag(w))
				u := lo[k]
				lo[k] = u + t
				hi[k] = u - t
			}
		}
	}
}

// BlockSpectra holds the overlap-save block spectra of one fixed
// signal on one grid. In memo mode (NewBlockSpectra) each block is
// transformed on first use and kept, so a waveform that is convolved
// frame after frame — the reader's own cached excitation — is
// transformed once. In per-call mode (Reset) every Block call
// transforms afresh into one scratch buffer. Both modes return
// bit-identical spectra. Not safe for concurrent use: the memo fills
// lazily.
type BlockSpectra struct {
	grid OLSGrid
	x    []complex128
	memo [][]complex128 // nil in per-call mode; nil entries not yet computed
	buf  []complex128   // per-call scratch
}

// NewBlockSpectra returns the memoizing block spectra of x on g. x must
// not change while the spectra are in use.
func NewBlockSpectra(g OLSGrid, x []complex128) *BlockSpectra {
	return &BlockSpectra{grid: g, x: x, memo: make([][]complex128, (len(x)+g.step-1)/g.step)}
}

// Reset points s at x on g in per-call mode, keeping its scratch.
func (s *BlockSpectra) Reset(g OLSGrid, x []complex128) {
	s.grid, s.x, s.memo = g, x, nil
}

// Grid is the grid the spectra are computed on.
func (s *BlockSpectra) Grid() OLSGrid { return s.grid }

// Signal is the signal whose spectra s holds.
func (s *BlockSpectra) Signal() []complex128 { return s.x }

// Block returns block b's spectrum (bit-reversed bin order). In
// per-call mode the result is valid until the next Block call.
func (s *BlockSpectra) Block(b int) []complex128 {
	if s.memo == nil {
		if cap(s.buf) < s.grid.n {
			s.buf = make([]complex128, s.grid.n)
		}
		s.buf = s.buf[:s.grid.n]
		s.grid.spectrumInto(s.buf, s.x, b)
		return s.buf
	}
	if s.memo[b] == nil {
		blk := make([]complex128, s.grid.n)
		s.grid.spectrumInto(blk, s.x, b)
		s.memo[b] = blk
	}
	return s.memo[b]
}

// FreqTerm is one x⊛h product of an overlap-save sum: the signal's
// block spectra and the filter's spectrum on the same grid (from
// FilterSpectrumInto).
type FreqTerm struct {
	X *BlockSpectra
	H []complex128
}

// FreqConv is the reusable scratch of overlap-save reconstruction. The
// zero value is ready to use; one FreqConv serves one goroutine.
type FreqConv struct {
	acc []complex128
}

// SumRangeInto writes samples [lo, lo+len(out)) of Σ_t X_t⊛h_t into
// out: out[i] is output sample lo+i of the causal "same"-length
// convolutions, summed. Each block's products are summed in the
// frequency domain, so the whole sum costs one inverse transform per
// block. All terms must share one grid, and lo+len(out) must not exceed
// the terms' signal length.
//
// Equal to ConvolveRangeInto to rounding (≲1e-13 of the output RMS),
// not bit for bit; bit-identical across windows, and across memoized
// and per-call spectra.
func (f *FreqConv) SumRangeInto(out []complex128, lo int, terms ...FreqTerm) {
	if len(out) == 0 || len(terms) == 0 {
		return
	}
	g := terms[0].X.grid
	for _, t := range terms[1:] {
		if t.X.grid != g {
			panic("dsp: overlap-save terms on different grids")
		}
	}
	if cap(f.acc) < g.n {
		f.acc = make([]complex128, g.n)
	}
	acc := f.acc[:g.n]
	hi := lo + len(out)
	for b := lo / g.step; b*g.step < hi; b++ {
		x0, h0 := terms[0].X.Block(b), terms[0].H[:g.n]
		for k := range acc {
			acc[k] = x0[k] * h0[k]
		}
		for _, t := range terms[1:] {
			xt, ht := t.X.Block(b), t.H[:g.n]
			for k := range acc {
				acc[k] += xt[k] * ht[k]
			}
		}
		g.inverse(acc)
		base := b * g.step
		from, to := max(lo, base), min(hi, base+g.step)
		off := g.taps - 1 - base
		copy(out[from-lo:to-lo], acc[from+off:to+off])
	}
}
