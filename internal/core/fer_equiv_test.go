package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"backfi/internal/fec"
	"backfi/internal/tag"
)

var updateFER = flag.Bool("update-fer", false, "rewrite testdata/hot_fer.golden from the current hot path")

// ferDistances and ferFramesPerDistance size the hot-path frame-error
// equivalence record: the fast tag at 128 B spans clean delivery (1 m)
// through the edge of its range, so a numerics change that moves any
// decision shows up as a flipped frame.
var ferDistances = []float64{1, 1.5, 1.75, 2, 2.25}

const ferFramesPerDistance = 48

// hotFEROutcomes runs ferFramesPerDistance fast-tag 128 B frames through
// the session-cache hot path at each distance (four placements each)
// and renders one line per frame: the decode outcome and a digest of
// the decoded payload.
func hotFEROutcomes(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, d := range ferDistances {
		for place := 0; place < 4; place++ {
			cfg := hotLinkConfig(int64(1000*d) + int64(place))
			cfg.Channel.DistanceM = d
			cfg.Tag = tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: tag.DefaultPreambleChips, ID: 1}
			link, err := NewLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < ferFramesPerDistance/4; i++ {
				payload := make([]byte, 128)
				rng.Read(payload)
				res, err := link.RunPacket(payload)
				fmt.Fprintf(&b, "d=%g place=%d frame=%d ", d, place, i)
				switch {
				case errors.Is(err, ErrTagNoWake):
					b.WriteString("nowake\n")
					continue
				case err != nil:
					t.Fatalf("d=%g place=%d frame %d: %v", d, place, i, err)
				}
				h := fnv.New64a()
				h.Write(res.Decode.Payload)
				fmt.Fprintf(&b, "ok=%t payload_ok=%t digest=%016x\n", res.Decode.FrameOK, res.PayloadOK, h.Sum64())
			}
		}
	}
	return b.String()
}

// TestHotPathFEREquivalence pins the hot path's per-frame outcomes —
// FrameOK, payload match and a digest of the decoded bytes — to the
// record taken before the frequency-domain canceller replaced the
// direct-form one (DESIGN.md §5g). The two reconstructions differ by
// rounding only (~1e-12 of the self-interference amplitude), far below
// the thermal floor, so no frame may change its outcome.
func TestHotPathFEREquivalence(t *testing.T) {
	got := hotFEROutcomes(t)
	golden := filepath.Join("testdata", "hot_fer.golden")
	if *updateFER {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal([]byte(got), want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d outcome lines, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("flipped: got %q, golden %q", gl[i], wl[i])
		}
	}
}
