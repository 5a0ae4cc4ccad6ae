package fec

import (
	"fmt"
	"math"
	"math/rand"
)

// referenceViterbiDecode is the straightforward decoder the packed
// kernel replaced, kept verbatim as the oracle for bit-identity: one
// decision byte per state and step, states visited in ascending order,
// strict > so the first (even) predecessor wins a tie, and unreachable
// states skipped so their decision byte stays 0.
func referenceViterbiDecode(soft []float64, terminated bool) ([]byte, error) {
	if len(soft)%2 != 0 {
		return nil, fmt.Errorf("fec: soft stream length %d is odd", len(soft))
	}
	steps := len(soft) / 2
	if steps == 0 {
		return nil, nil
	}
	if terminated && steps < TailBits {
		return nil, fmt.Errorf("fec: %d steps too short for terminated trellis", steps)
	}
	var nextState [NumStates][2]int
	var outSign [NumStates][2][2]float64
	for s := 0; s < NumStates; s++ {
		for b := 0; b < 2; b++ {
			window := uint32(s) | uint32(b)<<(ConstraintLength-1)
			nextState[s][b] = int(window >> 1)
			outSign[s][b][0] = 1 - 2*float64(parity(window&G0))
			outSign[s][b][1] = 1 - 2*float64(parity(window&G1))
		}
	}

	negInf := math.Inf(-1)
	metric := make([]float64, NumStates)
	next := make([]float64, NumStates)
	for s := 1; s < NumStates; s++ {
		metric[s] = negInf
	}
	decisions := make([]uint8, steps*NumStates)
	for t := 0; t < steps; t++ {
		sa, sb := soft[2*t], soft[2*t+1]
		dec := decisions[t*NumStates : (t+1)*NumStates]
		for i := range next {
			next[i] = negInf
		}
		for s := 0; s < NumStates; s++ {
			m := metric[s]
			if m == negInf {
				continue
			}
			for b := 0; b < 2; b++ {
				ns := nextState[s][b]
				bm := m + sa*outSign[s][b][0] + sb*outSign[s][b][1]
				if bm > next[ns] {
					next[ns] = bm
					dec[ns] = uint8(s) | uint8(b)<<7
				}
			}
		}
		metric, next = next, metric
	}

	final := 0
	if !terminated {
		best := negInf
		for s, m := range metric {
			if m > best {
				best, final = m, s
			}
		}
	} else if metric[0] == negInf {
		return nil, fmt.Errorf("fec: no survivor reaches the zero state")
	}
	bits := make([]byte, steps)
	s := final
	for t := steps - 1; t >= 0; t-- {
		d := decisions[t*NumStates+s]
		bits[t] = d >> 7
		s = int(d & 0x3F)
	}
	if terminated {
		bits = bits[:steps-TailBits]
	}
	return bits, nil
}

// softCase draws one decoder input the way the equivalence tests need
// it: a codeword of random length (terminated or not) under Gaussian
// noise of a random σ, with random erasures, optionally rounded to a
// coarse integer grid so path metrics tie exactly, and optionally
// salted with ±Inf, NaN and overflow-sized values.
func softCase(r *rand.Rand, maxSteps int) (soft []float64, terminated bool) {
	terminated = r.Intn(2) == 0
	bits := randBits(r, r.Intn(maxSteps+1))
	var coded []byte
	if terminated {
		coded = EncodeTerminated(bits)
	} else {
		coded = ConvEncode(bits)
	}
	soft = HardToSoft(coded)
	sigma := []float64{0, 0.3, 0.8, 1.5}[r.Intn(4)]
	erase := []float64{0, 0.1, 0.4}[r.Intn(3)]
	integer := r.Intn(3) == 0
	special := []float64{0, 0.005, 0.05}[r.Intn(3)]
	for i := range soft {
		soft[i] += sigma * r.NormFloat64()
		if integer {
			soft[i] = math.Round(soft[i])
		}
		if r.Float64() < erase {
			soft[i] = 0
		}
		if r.Float64() < special {
			soft[i] = nonFinite[r.Intn(len(nonFinite))]
		}
	}
	return soft, terminated
}

// nonFinite lists the soft values that defeat the finite fast path,
// plus magnitudes large enough to overflow path metrics to ±Inf.
var nonFinite = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1)}
