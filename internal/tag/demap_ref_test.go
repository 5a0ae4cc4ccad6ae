package tag

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// referencePSKDemapSoft is the PSK soft demapper before its
// constellation tables were hoisted out of the call: it rebuilds the
// table per call and scans it once per bit. Kept as the bit-identity
// oracle for DemapSoft.
func referencePSKDemapSoft(m Modulation, points []complex128) []float64 {
	k := m.BitsPerSymbol()
	n := m.Points()
	type entry struct {
		pt    complex128
		label int
	}
	table := make([]entry, n)
	for p := 0; p < n; p++ {
		s, c := math.Sincos(m.Phase(p))
		table[p] = entry{complex(c, s), grayEncode(p)}
	}
	out := make([]float64, len(points)*k)
	for pi, y := range points {
		mag := cmplx.Abs(y)
		var u complex128
		if mag > 0 {
			u = y / complex(mag, 0)
		}
		for bit := 0; bit < k; bit++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for _, e := range table {
				dr := real(u) - real(e.pt)
				di := imag(u) - imag(e.pt)
				d := dr*dr + di*di
				if (e.label>>(uint(k-1-bit)))&1 == 0 {
					if d < d0 {
						d0 = d
					}
				} else if d < d1 {
					d1 = d
				}
			}
			out[pi*k+bit] = (d1 - d0) * mag
		}
	}
	return out
}

// TestDemapSoftMatchesReference checks DemapSoft bit for bit against
// the per-bit-scan demapper over random points of every scale, exact
// constellation points, 0, and points with infinite or NaN parts.
func TestDemapSoftMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	inf, nan := math.Inf(1), math.NaN()
	points := []complex128{0, complex(math.Copysign(0, -1), 0), 1, -1, 1i, -1i,
		complex(inf, 0), complex(0, -inf), complex(inf, inf), complex(nan, 0), complex(1, nan),
		complex(math.MaxFloat64, math.MaxFloat64), complex(5e-324, 0)}
	for i := 0; i < 2000; i++ {
		scale := math.Pow(10, float64(r.Intn(13)-6))
		points = append(points, complex(scale*r.NormFloat64(), scale*r.NormFloat64()))
	}
	for _, m := range Modulations {
		points = append(points, m.MapBits(randomBits(r, 16*m.BitsPerSymbol()))...)
	}
	for _, m := range Modulations {
		got, want := m.DemapSoft(points), referencePSKDemapSoft(m, points)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: soft[%d] (point %v) = %v, reference %v", m, i, points[i/m.BitsPerSymbol()], got[i], want[i])
			}
		}
	}
}
