// Package tag implements the BackFi IoT sensor: the n-PSK backscatter
// reflection modulator built from an SPDT switch tree, the low-power
// envelope-detector wake-up receiver, tag-side convolutional encoding,
// packet framing, and the link-layer timing of paper Fig. 4
// (detection 16 µs → silent 16 µs → preamble 32 µs → payload).
package tag

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Modulation is the tag's reflection constellation: the paper's
// BPSK/QPSK/16PSK switch-tree orders, plus the 16-QAM alternative the
// paper compares against (see qam.go).
type Modulation int

const (
	// BPSK: 1 bit/symbol, one SPDT switch.
	BPSK Modulation = iota
	// QPSK: 2 bits/symbol, three SPDT switches.
	QPSK
	// PSK16: 4 bits/symbol, fifteen SPDT switches.
	PSK16
)

// Modulations lists the paper's PSK orders (the Fig. 7 set).
var Modulations = []Modulation{BPSK, QPSK, PSK16}

// AllModulations additionally includes the 16-QAM extension.
var AllModulations = []Modulation{BPSK, QPSK, PSK16, QAM16}

// Validate reports whether m is one of the defined constellations.
// Constellation lookups (BitsPerSymbol, Map, …) treat an unknown order
// as an internal invariant violation and panic, so config paths must
// validate first.
func (m Modulation) Validate() error {
	switch m {
	case BPSK, QPSK, PSK16, QAM16:
		return nil
	}
	return fmt.Errorf("tag: unknown modulation %d", int(m))
}

// BitsPerSymbol returns the information bits carried per tag symbol.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case PSK16, QAM16:
		return 4
	}
	panic("tag: unknown modulation")
}

// Points returns the constellation size.
func (m Modulation) Points() int { return 1 << uint(m.BitsPerSymbol()) }

// SwitchCount returns the number of SPDT switches in the phase-selector
// tree of paper Fig. 3: a full binary tree with Points−1 internal
// nodes. The QAM16 modulator ([49]-style) needs the same selector tree
// plus attenuation states and is charged the same count.
func (m Modulation) SwitchCount() int { return m.Points() - 1 }

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case PSK16:
		return "16PSK"
	case QAM16:
		return "16QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// grayEncode returns the Gray code of v.
func grayEncode(v int) int { return v ^ (v >> 1) }

// Phase returns the reflected phase (radians) selected by symbol index
// s in [0, Points): the trace lengths at the tree leaves are cut for
// equally spaced phases. It is defined only for the PSK orders.
func (m Modulation) Phase(s int) float64 {
	if m == QAM16 {
		panic("tag: QAM16 states are not phase-only")
	}
	n := m.Points()
	if s < 0 || s >= n {
		panic(fmt.Sprintf("tag: symbol %d out of range for %s", s, m))
	}
	return 2 * math.Pi * float64(s) / float64(n)
}

// MapBits converts a bit slice into constellation phasors e^{jθ} using
// Gray labeling, so adjacent phases differ in one bit. len(bits) must be
// a multiple of BitsPerSymbol.
func (m Modulation) MapBits(bits []byte) []complex128 {
	if m == QAM16 {
		return qam16Map(bits)
	}
	k := m.BitsPerSymbol()
	if len(bits)%k != 0 {
		panic("tag: bit count not a multiple of bits per symbol")
	}
	out := make([]complex128, len(bits)/k)
	for i := range out {
		v := 0
		for j := 0; j < k; j++ {
			v = v<<1 | int(bits[i*k+j])
		}
		s, c := math.Sincos(m.Phase(grayIndex(m, v)))
		out[i] = complex(c, s)
	}
	return out
}

// grayIndex maps a bit label value to its constellation position such
// that neighbors differ by one bit: position p carries label gray(p),
// so label v sits at gray^{-1}(v).
func grayIndex(m Modulation, v int) int {
	n := m.Points()
	for p := 0; p < n; p++ {
		if grayEncode(p) == v {
			return p
		}
	}
	panic("tag: unreachable")
}

// pskConstellation is one PSK order's constellation, built once: the
// phasor at each position, and for each label bit (MSB first) the
// positions whose label has that bit 0 and 1.
type pskConstellation struct {
	pts   []complex128
	split [4][2][]int
}

var pskTables = [...]pskConstellation{BPSK: newPSK(BPSK), QPSK: newPSK(QPSK), PSK16: newPSK(PSK16)}

func newPSK(m Modulation) pskConstellation {
	k := m.BitsPerSymbol()
	c := pskConstellation{pts: make([]complex128, m.Points())}
	for p := range c.pts {
		s, co := math.Sincos(m.Phase(p))
		c.pts[p] = complex(co, s)
		label := grayEncode(p)
		for bit := 0; bit < k; bit++ {
			v := label >> uint(k-1-bit) & 1
			c.split[bit][v] = append(c.split[bit][v], p)
		}
	}
	return c
}

// DemapSoft converts received phasor estimates into per-bit soft values
// (+ → bit 0) with the max-log approximation over the PSK
// constellation, weighted by the estimate magnitudes (MRC confidence).
func (m Modulation) DemapSoft(points []complex128) []float64 {
	if m == QAM16 {
		return qam16DemapSoft(points)
	}
	k := m.BitsPerSymbol()
	c := &pskTables[m]
	out := make([]float64, len(points)*k)
	var dist [16]float64
	for pi, y := range points {
		mag := cmplx.Abs(y)
		var u complex128
		if mag > 0 {
			u = y / complex(mag, 0)
		}
		for p, pt := range c.pts {
			dr := real(u) - real(pt)
			di := imag(u) - imag(pt)
			dist[p] = dr*dr + di*di
			if dist[p] != dist[p] {
				dist[p] = math.Inf(1) // NaN never lowers a minimum
			}
		}
		for bit := 0; bit < k; bit++ {
			out[pi*k+bit] = (minAt(&dist, c.split[bit][1]) - minAt(&dist, c.split[bit][0])) * mag
		}
	}
	return out
}

// minAt returns the least dist[p] over the non-empty ps, folding from
// both ends so the compares form two short chains, not one long one.
// Distances are never NaN or −0, so this equals a strict-< scan from
// +Inf in position order, whatever order the minima are taken in.
func minAt(dist *[16]float64, ps []int) float64 {
	n := len(ps)
	a, b := dist[ps[0]], dist[ps[n-1]]
	for i := 1; i < n/2; i++ {
		a, b = min(a, dist[ps[i]]), min(b, dist[ps[n-1-i]])
	}
	return min(a, b)
}

// DemapHard slices phasors to bit labels.
func (m Modulation) DemapHard(points []complex128) []byte {
	if m == QAM16 {
		return qam16DemapHard(points)
	}
	k := m.BitsPerSymbol()
	n := m.Points()
	out := make([]byte, 0, len(points)*k)
	for _, y := range points {
		// Nearest phase: quantize the angle.
		theta := cmplx.Phase(y)
		if theta < 0 {
			theta += 2 * math.Pi
		}
		p := int(math.Round(theta/(2*math.Pi)*float64(n))) % n
		label := grayEncode(p)
		for j := k - 1; j >= 0; j-- {
			out = append(out, byte(label>>uint(j))&1)
		}
	}
	return out
}
