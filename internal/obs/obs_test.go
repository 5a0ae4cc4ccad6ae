package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same instrument.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("g", "a gauge", "k", "v")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3.0 {
		t.Fatalf("gauge = %v, want 3.0", got)
	}
}

func TestLabelSignatureSorted(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h", "b", "2", "a", "1")
	b := r.Counter("x_total", "h", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "h")
}

// TestNilRegistrySafe is the zero-overhead contract: every operation on
// a nil registry and its nil instruments must be a safe no-op.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "h")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("g", "h")
	g.Set(1)
	g.Add(1)
	h := r.Histogram("h", "h", DurationBuckets)
	h.Observe(1)
	r.Stage("s").Start(TraceCtx{}).End()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q (err %v)", sb.String(), err)
	}
}

// TestHistogramQuantileVsOracle checks bucket-interpolated quantiles
// against a sorted-slice oracle: the estimate must land within one
// bucket width of the exact order statistic.
func TestHistogramQuantileVsOracle(t *testing.T) {
	const width = 0.5
	bounds := LinBuckets(0, width, 41) // 0..20
	r := NewRegistry()
	h := r.Histogram("q", "h", bounds)
	rng := rand.New(rand.NewSource(7))
	var vals []float64
	for i := 0; i < 5000; i++ {
		v := rng.Float64()*18 + rng.NormFloat64()*0.3
		if v < 0 {
			v = 0
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	snap, ok := r.Snapshot().Histogram("q", "")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		oracle := vals[int(q*float64(len(vals)-1))]
		got := snap.Quantile(q)
		if diff := got - oracle; diff < -width || diff > width {
			t.Errorf("q=%.2f: bucket quantile %.3f vs oracle %.3f (|diff| > bucket width %.2f)", q, got, oracle, width)
		}
	}
	if snap.Count != int64(len(vals)) {
		t.Fatalf("count %d, want %d", snap.Count, len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if rel := (snap.Sum - sum) / sum; rel < -1e-9 || rel > 1e-9 {
		t.Fatalf("sum %.6f, want %.6f", snap.Sum, sum)
	}
}

// TestConcurrentIncrements hammers one counter, one gauge, and one
// histogram from many goroutines; totals must be exact. Run with -race
// in CI, this is also the data-race check for the lock-free paths.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", LinBuckets(0, 1, 8), "stage", "x")
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64((w*perG + i) % 10))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	// Bucket tallies must add up to the sharded count.
	snap, _ := r.Snapshot().Histogram("h", `{stage="x"}`)
	var bucketTotal int64
	for _, n := range snap.Counts {
		bucketTotal += n
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
}

// TestPrometheusGolden pins the text exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("backfi_packets_total", "Packet exchanges attempted.").Add(3)
	r.Gauge("backfi_parallel_workers", "Configured worker count.").Set(8)
	h := r.Histogram("backfi_stage_duration_seconds", "Per-stage wall clock.",
		[]float64{1, 2, 4}, "stage", "mrc")
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(8)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP backfi_packets_total Packet exchanges attempted.
# TYPE backfi_packets_total counter
backfi_packets_total 3
# HELP backfi_parallel_workers Configured worker count.
# TYPE backfi_parallel_workers gauge
backfi_parallel_workers 8
# HELP backfi_stage_duration_seconds Per-stage wall clock.
# TYPE backfi_stage_duration_seconds histogram
backfi_stage_duration_seconds_bucket{stage="mrc",le="1"} 1
backfi_stage_duration_seconds_bucket{stage="mrc",le="2"} 1
backfi_stage_duration_seconds_bucket{stage="mrc",le="4"} 2
backfi_stage_duration_seconds_bucket{stage="mrc",le="+Inf"} 3
backfi_stage_duration_seconds_sum{stage="mrc"} 11.5
backfi_stage_duration_seconds_count{stage="mrc"} 3
`
	if got := sb.String(); got != want {
		t.Fatalf("prometheus text drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h", "x", "1").Inc()
	r.Histogram("d", "h", DurationBuckets).Observe(0.5)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a_total", `{x="1"}`) != 1 {
		t.Fatalf("counter lost in round trip: %s", raw)
	}
	if h, ok := back.Histogram("d", ""); !ok || h.Count != 1 {
		t.Fatalf("histogram lost in round trip: %s", raw)
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("backfi_packets_total", "h").Add(2)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "backfi_packets_total 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Counter("backfi_packets_total", "") != 2 {
		t.Fatalf("/metrics.json wrong (err %v): %+v", err, snap)
	}
}

func TestServePprof(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}

func TestManifestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("backfi_packets_total", "h").Add(7)
	m := NewManifest("test-run", map[string]any{"seed": 1, "trials": 2})
	m.AddPhase("fig8", 1.25, "Mbps@1m", 4.5)
	m.Finish(r)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Command != "test-run" || back.GoVersion == "" || back.NumCPU <= 0 {
		t.Fatalf("manifest header wrong: %+v", back)
	}
	if len(back.Phases) != 1 || back.Phases[0].Metric != "Mbps@1m" || back.Phases[0].Value != 4.5 {
		t.Fatalf("manifest phases wrong: %+v", back.Phases)
	}
	if back.Metrics == nil || back.Metrics.Counter("backfi_packets_total", "") != 7 {
		t.Fatalf("manifest metrics wrong: %+v", back.Metrics)
	}
	if back.WallSeconds < 0 || back.EndTime.Before(back.StartTime) {
		t.Fatalf("manifest timing wrong: %+v", back)
	}
}
