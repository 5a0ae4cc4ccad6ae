package fec

import (
	"math/rand"
	"testing"
)

func TestViterbiNoiselessRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 7, 64, 500} {
		bits := randBits(r, n)
		coded := EncodeTerminated(bits)
		got, err := ViterbiDecode(HardToSoft(coded), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d bits", n, len(got))
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("n=%d: bit %d differs", n, i)
			}
		}
	}
}

func TestViterbiUnterminated(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	bits := randBits(r, 100)
	coded := ConvEncode(bits)
	got, err := ViterbiDecode(HardToSoft(coded), false)
	if err != nil {
		t.Fatal(err)
	}
	// Without termination the last few bits are unreliable; check all
	// but the final TailBits.
	for i := 0; i < len(bits)-TailBits; i++ {
		if got[i] != bits[i] {
			t.Fatalf("bit %d differs", i)
		}
	}
}

func TestViterbiCorrectsBitErrors(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	bits := randBits(r, 200)
	coded := EncodeTerminated(bits)
	// Flip isolated coded bits (well separated, within free distance).
	for _, pos := range []int{10, 60, 120, 250, 399} {
		coded[pos] ^= 1
	}
	got, err := ViterbiDecode(HardToSoft(coded), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d not corrected", i)
		}
	}
}

func TestViterbiCorrectsErrorBurstWithinFreeDistance(t *testing.T) {
	// The (133,171) code has free distance 10: any pattern of up to 4
	// coded-bit errors in one constraint span is correctable.
	r := rand.New(rand.NewSource(13))
	bits := randBits(r, 100)
	coded := EncodeTerminated(bits)
	coded[40] ^= 1
	coded[41] ^= 1
	coded[44] ^= 1
	got, err := ViterbiDecode(HardToSoft(coded), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d not corrected", i)
		}
	}
}

func TestViterbiSoftBeatsHardWithReliabilities(t *testing.T) {
	// A weakly-received (low magnitude) wrong value should be overridden
	// by strong correct neighbors; encode zeros, corrupt one soft value
	// with small magnitude, and expect perfect decode.
	bits := make([]byte, 50)
	coded := EncodeTerminated(bits)
	soft := HardToSoft(coded)
	soft[20] = -0.1 // weakly suggests a 1 where a strong 0 belongs
	got, err := ViterbiDecode(soft, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != 0 {
			t.Fatalf("bit %d decoded as 1", i)
		}
	}
}

func TestViterbiErasuresFromPuncturing(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, rate := range []CodeRate{Rate12, Rate23, Rate34} {
		// Use a multiple of the puncture period of info+tail steps so
		// lengths line up: pick nInfo such that 2*(nInfo+6) is a
		// multiple of the pattern length.
		nInfo := 90
		bits := randBits(r, nInfo)
		tx := EncodePunctured(bits, rate)
		got, err := DecodePunctured(HardToSoft(tx), rate, nInfo, true)
		if err != nil {
			t.Fatalf("rate %s: %v", rate, err)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("rate %s: bit %d differs", rate, i)
			}
		}
	}
}

func TestViterbiPuncturedWithErrors(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	bits := randBits(r, 120)
	tx := EncodePunctured(bits, Rate23)
	tx[17] ^= 1
	tx[90] ^= 1
	got, err := DecodePunctured(HardToSoft(tx), Rate23, 120, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d not corrected", i)
		}
	}
}

func TestViterbiOddLengthRejected(t *testing.T) {
	if _, err := ViterbiDecode([]float64{1, 1, 1}, false); err == nil {
		t.Fatal("expected error for odd soft length")
	}
}

func TestViterbiEmpty(t *testing.T) {
	got, err := ViterbiDecode(nil, false)
	if err != nil || got != nil {
		t.Fatalf("empty decode: %v, %v", got, err)
	}
}

func TestViterbiTooShortTerminated(t *testing.T) {
	if _, err := ViterbiDecode([]float64{1, 1}, true); err == nil {
		t.Fatal("expected error: fewer steps than tail bits")
	}
}

// TestViterbiRandomizedStress runs many random codewords with random
// sparse errors and verifies perfect correction.
func TestViterbiRandomizedStress(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 25; trial++ {
		n := 20 + r.Intn(200)
		bits := randBits(r, n)
		coded := EncodeTerminated(bits)
		// One error per ~40 coded bits, spaced at least 15 apart.
		pos := 5 + r.Intn(10)
		for pos < len(coded) {
			coded[pos] ^= 1
			pos += 15 + r.Intn(40)
		}
		got, err := ViterbiDecode(HardToSoft(coded), true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("trial %d: bit %d wrong", trial, i)
			}
		}
	}
}

// TestDecoderZeroAlloc pins the reusable decoder's steady state: once
// its scratch has grown, a fresh decode, a punctured decode and the
// header-then-frame resume all run without touching the heap.
func TestDecoderZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	bits := randBits(r, 8*128+24)
	soft := HardToSoft(EncodeTerminated(bits))
	tx := HardToSoft(EncodePunctured(bits, Rate23))
	hdr := tx[:PuncturedLength(2*64, Rate23)]
	var d Decoder
	checks := map[string]func(){
		"decode": func() {
			d.reset()
			_, _ = d.Decode(soft, true)
		},
		"header then frame": func() {
			_, _ = d.DecodePunctured(hdr, Rate23, 64, false)
			_, _ = d.DecodePunctured(tx, Rate23, len(bits), true)
		},
	}
	for name, f := range checks {
		f() // grow the scratch
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", name, n)
		}
	}
}
