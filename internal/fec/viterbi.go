package fec

import (
	"fmt"
	"math"
	"slices"
)

// Trellis structure of the (133,171) code. From state s, input bit b
// leads to state s>>1 | b<<5, so states 2j and 2j+1 both feed states j
// (b=0) and j+32 (b=1): one radix-2 butterfly per j. Both generators
// tap the newest and the oldest bit of the 7-bit window, so flipping
// either the predecessor's low bit or the input bit flips both output
// bits: 2j→j and 2j+1→j+32 emit the same pair, 2j+1→j and 2j→j+32 its
// complement.
const butterflies = NumStates / 2

// butterflyOut[j] holds the outputs of the transition 2j→j: bit 0 is
// output A, bit 1 output B.
var butterflyOut = func() (out [butterflies]uint8) {
	for j := range out {
		window := uint32(2 * j)
		out[j] = parity(window&G0) | parity(window&G1)<<1
	}
	return out
}()

// Decoder is a reusable soft-decision Viterbi decoder for the rate-1/2
// mother code. It keeps its path metrics, packed survivors (one word
// per trellis step, bit s set when state s was entered from its odd
// predecessor) and output scratch across calls, so a warm decoder
// allocates nothing.
//
// A Decoder remembers the mother-code stream it last decoded. When the
// next stream starts with that whole stream, as the terminated frame
// pass does after the bounded header pass over the same symbols, only
// the new steps run; the result is the same as a fresh decode either
// way. The zero value is ready to use. Not safe for concurrent use.
type Decoder struct {
	metric [NumStates]float64
	spare  [NumStates]float64 // next-step metrics while advancing
	surv   []uint64
	fed    []float64 // the mother-code stream the held trellis covers
	bits   []byte
}

// reset forgets the held trellis: the encoder starts in state 0.
func (d *Decoder) reset() {
	d.metric[0] = 0
	for s := 1; s < NumStates; s++ {
		d.metric[s] = math.Inf(-1)
	}
	d.surv = d.surv[:0]
	d.fed = d.fed[:0]
}

// Decode is ViterbiDecode on the decoder's scratch. The returned slice
// is valid until the next call on d.
func (d *Decoder) Decode(soft []float64, terminated bool) ([]byte, error) {
	if len(soft)%2 != 0 {
		return nil, fmt.Errorf("fec: soft stream length %d is odd", len(soft))
	}
	return d.decode(soft, keep12, len(soft)/2, terminated)
}

// DecodePunctured is the package-level DecodePunctured on the decoder's
// scratch. The returned slice is valid until the next call on d.
func (d *Decoder) DecodePunctured(soft []float64, rate CodeRate, nInfo int, terminated bool) ([]byte, error) {
	steps := nInfo
	if terminated {
		steps += TailBits
	}
	if need := PuncturedLength(2*steps, rate); len(soft) < need {
		return nil, fmt.Errorf("fec: punctured stream too short: need > %d soft values", len(soft))
	} else if len(soft) > need {
		return nil, fmt.Errorf("fec: punctured stream length %d does not match mother length %d at rate %s", len(soft), 2*steps, rate)
	}
	return d.decode(soft, rate.puncturePattern(), steps, terminated)
}

// decode depunctures soft under keep-mask pat into steps trellis steps
// of the mother code, runs the steps the held trellis does not already
// cover, and traces back. len(soft) must match pat and steps.
func (d *Decoder) decode(soft []float64, pat []bool, steps int, terminated bool) ([]byte, error) {
	if steps == 0 {
		return nil, nil
	}
	if terminated && steps < TailBits {
		return nil, fmt.Errorf("fec: %d steps too short for terminated trellis", steps)
	}
	si := 0
	mother := func(i int) float64 { // depunctured value at position i, in order
		if !pat[i%len(pat)] {
			return 0
		}
		si++
		return soft[si-1]
	}
	resume := 0 < len(d.surv) && len(d.surv) <= steps
	for i := 0; resume && i < len(d.fed); i++ {
		resume = math.Float64bits(mother(i)) == math.Float64bits(d.fed[i])
	}
	if !resume {
		d.reset()
		si = 0
	}
	from := len(d.fed)
	d.fed = slices.Grow(d.fed, 2*steps-from)
	for i := from; i < 2*steps; i++ {
		d.fed = append(d.fed, mother(i))
	}
	d.advance(d.fed[from:])

	final := 0
	if !terminated {
		best := math.Inf(-1)
		for s, m := range d.metric {
			if m > best {
				best, final = m, s
			}
		}
	} else if d.metric[0] == math.Inf(-1) {
		return nil, fmt.Errorf("fec: no survivor reaches the zero state")
	}
	bits := d.traceback(final)
	if terminated {
		bits = bits[:steps-TailBits]
	}
	return bits, nil
}

// advance runs add-compare-select over each (A, B) pair of soft,
// appending one survivor word per step.
//
// Bit-identity with a per-state branchy decoder: each branch metric is
// m + (±sa) + (±sb) in that order, exactly sa·(±1) summed the same way;
// a strict > lets the even predecessor win ties; and metrics are never
// NaN, since NaN loses every compare. With sa and sb finite no branch
// metric can be NaN, so "odd beats even" is one compare and the winner
// is picked by masking float bits (acsFinite). A step with a
// non-finite value takes the exact sequential compare (acsExact).
func (d *Decoder) advance(soft []float64) {
	d.surv = slices.Grow(d.surv, len(soft)/2)
	cur, next := &d.metric, &d.spare
	for t := 0; t+1 < len(soft); t += 2 {
		sa, sb := soft[t], soft[t+1]
		var surv uint64
		if sa-sa == 0 && sb-sb == 0 {
			surv = acsFinite(cur, next, sa, sb)
		} else {
			surv = acsExact(cur, next, sa, sb)
		}
		d.surv = append(d.surv, surv)
		cur, next = next, cur
	}
	if cur != &d.metric {
		d.metric = *cur
	}
}

// acsFinite is one trellis step for finite sa, sb: every butterfly
// picks each next state's survivor with one compare and a bit mask.
func acsFinite(cur, next *[NumStates]float64, sa, sb float64) uint64 {
	pa := [2]float64{sa, -sa}
	pb := [2]float64{sb, -sb}
	var surv uint64
	for j := 0; j < butterflies; j++ {
		o := butterflyOut[j]
		ea, eb := pa[o&1], pb[o>>1&1]
		na, nb := pa[^o&1], pb[^o>>1&1]
		m0, m1 := cur[2*j], cur[2*j+1]
		u0, u1 := m0+ea+eb, m1+na+nb // into j
		v0, v1 := m0+na+nb, m1+ea+eb // into j+32
		cu, cv := greater(u1, u0), greater(v1, v0)
		next[j] = pick(cu, u1, u0)
		next[j+butterflies] = pick(cv, v1, v0)
		surv |= cu<<uint(j) | cv<<uint(j+butterflies)
	}
	return surv
}

// acsExact is one trellis step in the sequential form, for steps with
// a non-finite soft value: each next state starts at −Inf, takes the
// even branch if it is greater, then the odd branch if it is greater
// still, so a NaN even branch cannot block the odd one. A state no
// branch reaches stays at −Inf with survivor bit 0.
func acsExact(cur, next *[NumStates]float64, sa, sb float64) uint64 {
	pa := [2]float64{sa, -sa}
	pb := [2]float64{sb, -sb}
	var surv uint64
	for j := 0; j < butterflies; j++ {
		o := butterflyOut[j]
		ea, eb := pa[o&1], pb[o>>1&1]
		na, nb := pa[^o&1], pb[^o>>1&1]
		m0, m1 := cur[2*j], cur[2*j+1]
		for k, c := range [2][2]float64{{m0 + ea + eb, m1 + na + nb}, {m0 + na + nb, m1 + ea + eb}} {
			ns := j + k*butterflies
			next[ns] = math.Inf(-1)
			if c[0] > next[ns] {
				next[ns] = c[0]
			}
			if c[1] > next[ns] {
				next[ns] = c[1]
				surv |= 1 << uint(ns)
			}
		}
	}
	return surv
}

// greater returns 1 if x > y, else 0.
func greater(x, y float64) uint64 {
	var c uint64
	if x > y {
		c = 1
	}
	return c
}

// pick returns x if c is 1 and y if c is 0, without a branch.
func pick(c uint64, x, y float64) float64 {
	mask := -c
	return math.Float64frombits(math.Float64bits(x)&mask | math.Float64bits(y)&^mask)
}

// traceback walks the survivors back from state final at the last
// step and returns one decoded bit per step. Only state 0 can be
// entered here while unreachable (the unterminated case where every
// metric is −Inf), and its survivor bit is 0, so the walk reads bit 0
// and stays in state 0 exactly as a zeroed decision byte would.
func (d *Decoder) traceback(final int) []byte {
	n := len(d.surv)
	if cap(d.bits) < n {
		d.bits = make([]byte, n)
	}
	bits := d.bits[:n]
	s := final
	for t := n - 1; t >= 0; t-- {
		bits[t] = byte(s >> 5)
		s = (s&(butterflies-1))<<1 | int(d.surv[t]>>uint(s)&1)
	}
	return bits
}

// ViterbiDecode performs maximum-likelihood sequence decoding of the
// rate-1/2 mother code from soft values (+1 → bit 0, −1 → bit 1,
// 0 → erasure; magnitudes act as reliabilities). len(soft) must be even;
// each pair (A, B) is one trellis step.
//
// If terminated is true the encoder is assumed to have appended TailBits
// zeros (EncodeTerminated): the survivor ending in state 0 is chosen and
// the tail is stripped from the returned bits. Otherwise the best final
// state is used and all decisions are returned.
func ViterbiDecode(soft []float64, terminated bool) ([]byte, error) {
	return new(Decoder).Decode(soft, terminated)
}

// DecodePunctured depunctures a soft stream of the given rate and runs
// the Viterbi decoder. nInfo is the number of information bits expected
// (excluding tail); terminated indicates whether TailBits zeros were
// appended before encoding.
func DecodePunctured(soft []float64, rate CodeRate, nInfo int, terminated bool) ([]byte, error) {
	return new(Decoder).DecodePunctured(soft, rate, nInfo, terminated)
}

// EncodePunctured encodes bits with the terminated mother code and
// punctures to the given rate.
func EncodePunctured(bits []byte, rate CodeRate) []byte {
	return Puncture(EncodeTerminated(bits), rate)
}
