package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestOpsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricPackets, "h").Inc()
	tr := NewTracer(TracerConfig{})
	tr.Head("sess", 0).record("decode", time.Unix(1, 0), time.Millisecond)
	fl := NewFlightRecorder(16)
	fl.Record(FlightWatchdogTrip, "sess", "residual", 7)
	slo := NewSLO(SLOConfig{Obs: reg})
	slo.Record(true, 0.002)
	ready := true
	mux := opsMux(ServeOpts{
		Registry: reg,
		Tracer:   tr,
		Flight:   fl,
		SLO:      slo,
		Ready:    func() bool { return ready },
	})

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, MetricPackets) {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	// The SLO gauges refresh on scrape: the burn-rate family appears
	// even though nothing called Snapshot explicitly.
	if _, body := get("/metrics"); !strings.Contains(body, MetricSLOBurnRate) {
		t.Fatalf("/metrics missing SLO gauges:\n%s", body)
	}

	if code, body := get("/debug/trace"); code != 200 {
		t.Fatalf("/debug/trace: %d", code)
	} else {
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.TraceEvents) != 1 {
			t.Fatalf("/debug/trace body: %v\n%s", err, body)
		}
	}

	if code, body := get("/debug/flightrecorder"); code != 200 || !strings.Contains(body, FlightWatchdogTrip) {
		t.Fatalf("/debug/flightrecorder: %d\n%s", code, body)
	}

	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz: %d", code)
	} else {
		var snap SLOSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil || !snap.Healthy || snap.Frames != 1 {
			t.Fatalf("/healthz body: %v\n%s", err, body)
		}
	}

	if code, body := get("/readyz"); code != 200 || body != "ok\n" {
		t.Fatalf("/readyz ready: %d %q", code, body)
	}
	ready = false
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz draining: %d %q", code, body)
	}
}

// Every component is optional: the zero ServeOpts must serve valid
// empty responses, matching the package's nil-safe convention.
func TestOpsEndpointsNilComponents(t *testing.T) {
	mux := opsMux(ServeOpts{})
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/trace", "/debug/flightrecorder", "/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s with nil components: %d", path, rec.Code)
		}
	}
}
