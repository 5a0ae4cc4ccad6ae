package linalg

import (
	"fmt"
	"math/cmplx"
)

// ToeplitzWorkspace holds the scratch a repeated ToeplitzLSFast call
// reuses: the Gram factor, the right-hand side and the solution. The
// zero value is ready to use; one workspace serves one goroutine.
type ToeplitzWorkspace struct {
	f ToeplitzFactor
}

// ToeplitzLSFast solves the same FIR system-identification problem as
// ToeplitzLS — find h with y[n] ≈ (x ⊛ h)[n] over rows n ∈ [start,
// stop) — but builds the normal equations directly from x instead of
// materializing the convolution matrix. The Gram matrix of a Toeplitz
// system obeys the shift recurrence
//
//	G[i+1][j+1] = G[i][j] + x̄[start-1-i]·x[start-1-j] − x̄[stop-1-i]·x[stop-1-j]
//
// so only the first row and column are summed over the window; the
// interior fills in O(L²). Total cost is O(w·L + L³) against the
// direct construction's O(w·L²) — an order of magnitude on the
// serving hot path, where the canceller re-estimates a 32-tap channel
// over a 320-sample silent window on every frame.
//
// The result is numerically equivalent to ToeplitzLS (same normal
// equations, same Cholesky solve) but not bit-identical: the recurrence
// sums in a different order. It is deterministic for fixed inputs, and
// bit-identical to ToeplitzFactor.Factor followed by Solve, which is
// how it is computed. The returned slice aliases ws and is valid until
// the next call on the same workspace.
func ToeplitzLSFast(ws *ToeplitzWorkspace, x, y []complex128, ntaps, start, stop int, lambda float64) ([]complex128, error) {
	if start < 0 || stop > len(y) || stop > len(x) || start >= stop {
		return nil, fmt.Errorf("linalg: bad sample range [%d,%d) for len(x)=%d len(y)=%d", start, stop, len(x), len(y))
	}
	if err := ws.f.Factor(x, ntaps, start, stop, lambda); err != nil {
		return nil, err
	}
	return ws.f.Solve(y[start:stop]), nil
}

// ToeplitzFactor is the Cholesky factor of ToeplitzLSFast's ridge
// normal equations for one excitation x, tap count, row window and λ.
// The Gram matrix depends on x alone, never on the observations, so a
// caller that fits many observation vectors against one x — the
// reader's canceller retraining on its cached excitation every frame —
// factors once and then pays only Aᴴy and two triangular solves per
// fit. The zero value holds no factor.
type ToeplitzFactor struct {
	x                  []complex128
	ntaps, start, stop int
	lambda             float64
	chol               *Matrix
	rhs                []complex128
}

// Factor builds and factors the regularized Gram matrix of x over rows
// [start, stop) for ntaps taps. x must stay unchanged while the factor
// is used. On error f holds no factor.
func (f *ToeplitzFactor) Factor(x []complex128, ntaps, start, stop int, lambda float64) error {
	f.ntaps = 0
	if ntaps <= 0 {
		return fmt.Errorf("linalg: ntaps must be positive, got %d", ntaps)
	}
	if start < 0 || stop > len(x) || start >= stop {
		return fmt.Errorf("linalg: bad sample range [%d,%d) for len(x)=%d", start, stop, len(x))
	}
	if stop-start < ntaps {
		return fmt.Errorf("linalg: %d observations for %d taps", stop-start, ntaps)
	}
	L := ntaps
	if f.chol == nil || f.chol.Rows != L {
		f.chol = NewMatrix(L, L)
		f.rhs = make([]complex128, L)
	}
	g := f.chol
	for i := range g.Data {
		g.Data[i] = 0
	}
	// First row (i=0): G[0][j] = Σ_n x̄[n]·x[n-j].
	lagSums(g.Data[:L], x, x[start:stop], start, true)
	// First column by Hermitian symmetry of the full Gram matrix.
	for i := 1; i < L; i++ {
		g.Data[i*L] = cmplx.Conj(g.Data[i])
	}
	// Interior via the shift recurrence, diagonal by diagonal.
	for i := 0; i < L-1; i++ {
		for j := 0; j < L-1; j++ {
			g.Data[(i+1)*L+j+1] = g.Data[i*L+j] +
				cmplx.Conj(xat(x, start-1-i))*xat(x, start-1-j) -
				cmplx.Conj(xat(x, stop-1-i))*xat(x, stop-1-j)
		}
	}
	for i := 0; i < L; i++ {
		g.Data[i*L+i] += complex(lambda, 0)
	}
	if err := choleskyInPlace(g); err != nil {
		return err
	}
	f.x, f.ntaps, f.start, f.stop, f.lambda = x, ntaps, start, stop, lambda
	return nil
}

// Matches reports whether f holds the factor for these parameters. The
// caller vouches that the excitation is the one it factored.
func (f *ToeplitzFactor) Matches(ntaps, start, stop int, lambda float64) bool {
	return f.ntaps == ntaps && f.ntaps > 0 && f.start == start && f.stop == stop && f.lambda == lambda
}

// Solve returns the taps h minimizing ‖y − x⊛h‖² + λ‖h‖² over the
// factored rows, where y[i] is the observation at row start+i
// (len(y) = stop−start). The result aliases f and is valid until the
// next Solve or Factor. f must hold a factor.
func (f *ToeplitzFactor) Solve(y []complex128) []complex128 {
	// b[j] = Σ_n x̄[n-j]·y[n].
	lagSums(f.rhs, f.x, y[:f.stop-f.start], f.start, false)
	choleskySolve(f.chol, f.rhs)
	return f.rhs
}

// lagSums sets out[j], for every lag j < len(out), to Σ_i ȳ[i]·x[start+i−j]
// (gram, where y is x[start:stop]) or Σ_i x̄[start+i−j]·y[i] (otherwise),
// with x read as zero before index 0. Each sum runs in i order from
// zero, so every out[j] rounds exactly as a one-lag-at-a-time loop
// would; four lags share a pass for instruction-level parallelism.
func lagSums(out, x, y []complex128, start int, gram bool) {
	stop := start + len(y)
	j := 0
	if start >= len(out)-1 {
		// Every x[n-j] is inside x: four lags per pass, no bounds
		// logic. The products are spelled out in real arithmetic as
		// Go's complex multiply rounds them (conj(a)·b has real part
		// ar·br + ai·bi and imaginary part ar·bi − ai·br), which keeps
		// the eight accumulators in registers.
		for ; j+4 <= len(out); j += 4 {
			x0 := x[start-j : stop-j]
			x1 := x[start-j-1 : stop-j-1]
			x2 := x[start-j-2 : stop-j-2]
			x3 := x[start-j-3 : stop-j-3]
			x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
			y := y[:len(x0)]
			var r0, i0, r1, i1, r2, i2, r3, i3 float64
			if gram {
				for i, v := range y {
					vr, vi := real(v), imag(v)
					p0, p1, p2, p3 := x0[i], x1[i], x2[i], x3[i]
					r0 += vr*real(p0) + vi*imag(p0)
					i0 += vr*imag(p0) - vi*real(p0)
					r1 += vr*real(p1) + vi*imag(p1)
					i1 += vr*imag(p1) - vi*real(p1)
					r2 += vr*real(p2) + vi*imag(p2)
					i2 += vr*imag(p2) - vi*real(p2)
					r3 += vr*real(p3) + vi*imag(p3)
					i3 += vr*imag(p3) - vi*real(p3)
				}
			} else {
				for i, v := range y {
					vr, vi := real(v), imag(v)
					p0, p1, p2, p3 := x0[i], x1[i], x2[i], x3[i]
					r0 += real(p0)*vr + imag(p0)*vi
					i0 += real(p0)*vi - imag(p0)*vr
					r1 += real(p1)*vr + imag(p1)*vi
					i1 += real(p1)*vi - imag(p1)*vr
					r2 += real(p2)*vr + imag(p2)*vi
					i2 += real(p2)*vi - imag(p2)*vr
					r3 += real(p3)*vr + imag(p3)*vi
					i3 += real(p3)*vi - imag(p3)*vr
				}
			}
			out[j], out[j+1] = complex(r0, i0), complex(r1, i1)
			out[j+2], out[j+3] = complex(r2, i2), complex(r3, i3)
		}
	}
	for ; j < len(out); j++ {
		var acc complex128
		for n := start; n < stop; n++ {
			if gram {
				acc += cmplx.Conj(y[n-start]) * xat(x, n-j)
			} else {
				acc += cmplx.Conj(xat(x, n-j)) * y[n-start]
			}
		}
		out[j] = acc
	}
}

// xat reads x[n], treating out-of-range indices as zero — the Toeplitz
// matrix construction's rows near the start of x.
func xat(x []complex128, n int) complex128 {
	if n < 0 || n >= len(x) {
		return 0
	}
	return x[n]
}

// SolveHermitianInPlace is the allocation-free form of SolveHermitian:
// g is factored in place (destroyed) and b is overwritten with the
// solution. Callers that assemble normal equations into a reused
// matrix — the serving hot path's channel estimator — pair this with
// that scratch to solve with zero heap traffic.
func SolveHermitianInPlace(g *Matrix, b []complex128, lambda float64) error {
	n := g.Rows
	if g.Cols != n {
		return fmt.Errorf("linalg: SolveHermitianInPlace on %dx%d matrix", g.Rows, g.Cols)
	}
	if len(b) != n {
		return fmt.Errorf("linalg: rhs length %d for %dx%d system", len(b), n, n)
	}
	for i := 0; i < n; i++ {
		g.Data[i*n+i] += complex(lambda, 0)
	}
	if err := choleskyInPlace(g); err != nil {
		return err
	}
	choleskySolve(g, b)
	return nil
}
