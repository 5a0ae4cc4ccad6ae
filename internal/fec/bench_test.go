package fec

import (
	"bytes"
	"math/rand"
	"testing"
)

func BenchmarkConvEncode1500B(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bits := randBits(r, 12000)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		ConvEncode(bits)
	}
}

func BenchmarkViterbiDecode1500B(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	bits := randBits(r, 12000)
	soft := HardToSoft(EncodeTerminated(bits))
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecode(soft, true); err != nil {
			b.Fatal(err)
		}
	}
}

// noisyFrame returns the soft values of a terminated 128-byte frame
// (1,054 trellis steps, the serve_hot frame size) under Gaussian noise
// at σ = 0.7, where the code still corrects every error. Noise
// matters: on clean input every compare goes the same way, which hides
// the cost of unpredictable branches.
func noisyFrame(b *testing.B) []float64 {
	r := rand.New(rand.NewSource(4))
	bits := randBits(r, 8*128+24)
	soft := HardToSoft(EncodeTerminated(bits))
	for i := range soft {
		soft[i] += 0.7 * r.NormFloat64()
	}
	got, err := ViterbiDecode(soft, true)
	if err != nil || !bytes.Equal(got, bits) {
		b.Fatalf("noisy frame does not decode: %v", err)
	}
	return soft
}

func BenchmarkViterbiDecodeNoisy(b *testing.B) {
	soft := noisyFrame(b)
	b.ReportAllocs()
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecode(soft, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderReuse is the noisy frame on one warm Decoder, as a
// session decodes frame after frame. It must report 0 allocs/op.
func BenchmarkDecoderReuse(b *testing.B) {
	soft := noisyFrame(b)
	var d Decoder
	if _, err := d.Decode(soft, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.reset() // decode every step, not just the traceback
		if _, err := d.Decode(soft, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScramble1500B(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	bits := randBits(r, 12000)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		NewScrambler(0x5D).Scramble(bits)
	}
}
