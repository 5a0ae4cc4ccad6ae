package fec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pinCase is one input of TestViterbiNonFinitePinned.
type pinCase struct {
	name       string
	soft       []float64
	terminated bool
}

// nonFinitePinCases writes ±Inf, NaN or overflow-sized values at fixed
// positions of a clean 20-bit codeword, terminated and not.
func nonFinitePinCases() []pinCase {
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1}
	with := func(term bool, set map[int]float64) []float64 {
		var coded []byte
		if term {
			coded = EncodeTerminated(bits)
		} else {
			coded = ConvEncode(bits)
		}
		soft := HardToSoft(coded)
		for i, v := range set {
			soft[i] = v
		}
		return soft
	}
	inf, nan := math.Inf(1), math.NaN()
	from := func(term bool, start int, v float64) []float64 {
		soft := with(term, nil)
		for i := start; i < len(soft); i++ {
			soft[i] = v
		}
		return soft
	}
	var cases []pinCase
	for _, term := range []bool{false, true} {
		cases = append(cases,
			pinCase{"nan", with(term, map[int]float64{10: nan}), term},
			pinCase{"+inf", with(term, map[int]float64{7: inf}), term},
			pinCase{"-inf,+inf", with(term, map[int]float64{7: -inf, 30: inf}), term},
			pinCase{"inf pair", with(term, map[int]float64{12: inf, 13: -inf}), term},
			pinCase{"overflow", with(term, map[int]float64{4: math.MaxFloat64, 5: math.MaxFloat64, 20: -math.MaxFloat64}), term},
			pinCase{"nan tail", from(term, 12, nan), term},
			pinCase{"-inf tail", from(term, 12, -inf), term},
		)
	}
	return cases
}

// TestViterbiNonFinitePinned pins what the decoder returns when soft
// values are infinite, NaN or large enough to overflow the path
// metrics. These goldens were recorded from the byte-per-state decoder
// (referenceViterbiDecode) and hold independently of it.
func TestViterbiNonFinitePinned(t *testing.T) {
	const noZero = "fec: no survivor reaches the zero state"
	want := map[string][2]string{ // name → {unterminated, terminated}; "!" marks an error
		"nan":       {"00000000000000000000", "!" + noZero},
		"+inf":      {"00000000000000000000", "00000000000000000000"},
		"-inf,+inf": {"10000000000000000000", "10000000000000000000"},
		"inf pair":  {"11000000000000000000", "11000000000000000000"},
		"overflow":  {"00000000000000000000", "00000000000000000000"},
		"nan tail":  {"00000000000000000000", "!" + noZero},
		"-inf tail": {"11111111111111111111", "!" + noZero},
	}
	for _, c := range nonFinitePinCases() {
		w := want[c.name][0]
		if c.terminated {
			w = want[c.name][1]
		}
		got, err := ViterbiDecode(c.soft, c.terminated)
		var s string
		if err != nil {
			s = "!" + err.Error()
		} else {
			for _, b := range got {
				s += string('0' + rune(b))
			}
		}
		if s != w {
			t.Errorf("%s terminated=%v: got %q, want %q", c.name, c.terminated, s, w)
		}
	}
}

// sameDecode reports how got differs from the reference's output for
// the same input, or "" when bits and error text both match.
func sameDecode(got []byte, gotErr error, want []byte, wantErr error) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		return fmt.Sprintf("bits %v, reference %v", got, want)
	}
	return ""
}

// TestViterbiMatchesReference is the bit-identity property: for noisy,
// erased, tied and non-finite inputs, terminated or not, ViterbiDecode
// returns exactly the reference decoder's bits and error.
func TestViterbiMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 600; trial++ {
		soft, terminated := softCase(r, 300)
		if r.Intn(50) == 0 {
			soft = soft[:len(soft)-1] // odd length
		}
		got, err := ViterbiDecode(soft, terminated)
		want, wantErr := referenceViterbiDecode(soft, terminated)
		if diff := sameDecode(got, err, want, wantErr); diff != "" {
			t.Fatalf("trial %d (%d soft, terminated=%v): %s", trial, len(soft), terminated, diff)
		}
	}
}

// FuzzViterbiMatchesReference drives the same identity from arbitrary
// bytes: small byte values pick from ±1, 0, a few integers (exact
// ties) and the non-finite set; the rest map onto a grid of soft values.
func FuzzViterbiMatchesReference(f *testing.F) {
	f.Add(false, []byte{16, 240, 200, 30, 1, 1, 7, 9})
	f.Add(true, bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 6))
	table := append([]float64{1, -1, 0, 2, -2, 3, -3, 0.5, -0.5, 1, -1}, nonFinite...)
	f.Fuzz(func(t *testing.T, terminated bool, data []byte) {
		soft := make([]float64, len(data))
		for i, b := range data {
			if int(b) < len(table) {
				soft[i] = table[b]
			} else {
				soft[i] = float64(int8(b)) / 16
			}
		}
		got, err := ViterbiDecode(soft, terminated)
		want, wantErr := referenceViterbiDecode(soft, terminated)
		if diff := sameDecode(got, err, want, wantErr); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestDecoderResumeMatchesOneShot checks the resume path: a warm
// Decoder that first runs a bounded unterminated pass over a prefix of
// the stream (the header pass) and then decodes the whole stream
// returns the reference decoder's one-shot result, whether the held
// stream is a prefix of the next one, unrelated to it, or longer.
func TestDecoderResumeMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var d Decoder
	for trial := 0; trial < 400; trial++ {
		soft, terminated := softCase(r, 300)
		steps := len(soft) / 2
		var prefix []float64
		switch r.Intn(4) {
		case 0: // an unrelated earlier stream
			prefix, _ = softCase(r, 300)
		case 1: // a longer stream that starts with this one
			more, _ := softCase(r, 50)
			prefix = append(append([]float64{}, soft...), more[:len(more)&^1]...)
		default:
			prefix = soft[:2*r.Intn(steps+1)]
		}
		if _, err := d.Decode(prefix, false); err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(soft, terminated)
		want, wantErr := referenceViterbiDecode(soft, terminated)
		if diff := sameDecode(got, err, want, wantErr); diff != "" {
			t.Fatalf("trial %d (%d steps after %d, terminated=%v): %s", trial, steps, len(prefix)/2, terminated, diff)
		}
	}
}

// TestDecodePuncturedResume is the header-pass shape at every rate:
// an unterminated DecodePunctured over the punctured prefix that
// carries the first hdrSteps trellis steps, then the terminated frame
// on the same Decoder, equals a one-shot DecodePunctured.
func TestDecodePuncturedResume(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var d Decoder
	for trial := 0; trial < 120; trial++ {
		rate := []CodeRate{Rate12, Rate23, Rate34}[trial%3]
		nInfo := 16 + r.Intn(400)
		tx := EncodePunctured(randBits(r, nInfo), rate)
		soft := HardToSoft(tx)
		for i := range soft {
			soft[i] += 0.9 * r.NormFloat64()
		}
		hdrSteps := 1 + r.Intn(nInfo+TailBits)
		hdr := soft[:PuncturedLength(2*hdrSteps, rate)]
		if _, err := d.DecodePunctured(hdr, rate, hdrSteps, false); err != nil {
			t.Fatal(err)
		}
		full, err := Depuncture(soft, rate, 2*(nInfo+TailBits))
		if err != nil || fmt.Sprint(d.fed) != fmt.Sprint(full[:2*hdrSteps]) {
			t.Fatalf("trial %d: the header pass does not hold a prefix of the frame (%v)", trial, err)
		}
		got, err := d.DecodePunctured(soft, rate, nInfo, true)
		want, wantErr := DecodePunctured(soft, rate, nInfo, true)
		if diff := sameDecode(got, err, want, wantErr); diff != "" {
			t.Fatalf("trial %d rate %s (%d info bits, header %d steps): %s", trial, rate, nInfo, hdrSteps, diff)
		}
	}
}
