package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b, c := gen{seed: 7, workload: "w"}, gen{seed: 7, workload: "w"}, gen{seed: 8, workload: "w"}
	if a.sessionID("open", 1, 1, 4) != c.sessionID("open", 1, 1, 4) {
		t.Fatal("session ids depend on the seed; the session population is fixed")
	}
	if !reflect.DeepEqual(a.payloads("s", 5, 24), b.payloads("s", 5, 24)) {
		t.Fatal("same seed gave different payloads")
	}
	if reflect.DeepEqual(a.payloads("s", 5, 24), c.payloads("s", 5, 24)) {
		t.Fatal("different seeds gave the same payloads")
	}
	if !reflect.DeepEqual(a.schedule("s", 50, 100), b.schedule("s", 50, 100)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a.schedule("s", 50, 100), c.schedule("s", 50, 100)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestSessionIDsLandOnDistinctShards(t *testing.T) {
	g := gen{seed: 3, workload: "w"}
	for k := 0; k < 8; k++ {
		id := g.sessionID("closed", k, k%4, 4)
		if got := int(fnv32(id) % 4); got != k%4 {
			t.Fatalf("session %d id %s is on shard %d", k, id, got)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 0.5, true},
		{100, 0.9, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
	v := make([]float64, 999)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := p99(v); err == nil {
		t.Fatal("p99 accepted 999 samples")
	}
	v = append(v, 999)
	got, err := p99(v)
	if err != nil || got != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989 with 10 samples beyond", got, err)
	}
}

func TestSummarizeTakesTheMedianWindow(t *testing.T) {
	var windows [][]float64
	for w := 0; w < 5; w++ {
		v := make([]float64, 200)
		for i := range v {
			v[i] = float64(i)
		}
		if w == 4 {
			for i := range v {
				v[i] += 1000 // one window of a burst
			}
		}
		windows = append(windows, v)
	}
	s, err := summarize(windows)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 99 || s.P90 != 179 || s.N != 1000 {
		t.Fatalf("summary %+v; want p50 99, p90 179 from the unburst windows, 1000 samples", s)
	}
	if s.P99Err != "" || s.P99 != 1189 {
		t.Fatalf("pooled p99 %v (%s); want 1189", s.P99, s.P99Err)
	}
	if _, err := summarize([][]float64{make([]float64, 50)}); err == nil {
		t.Fatal("a 50-sample window was accepted for p90")
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range append(perLayerNames(), endToEndNames...) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	for _, bad := range []string{"", ".x", "a b", "lat/ms", "x{y}"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // sticks out of frame
		{Name: "a1", Parent: 1, Start: 15, End: 20}, // grandchild: not frame's
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestNestByContainment(t *testing.T) {
	spans := []span{
		{Name: "decode", Frame: 1, Start: 10, End: 90},
		{Name: "conn", Frame: 1, Start: 0, End: 100},
		{Name: "viterbi", Frame: 1, Start: 20, End: 30},
		{Name: "other", Frame: 2, Start: 20, End: 30},
	}
	nestByContainment(spans)
	var parents []int
	for _, s := range spans {
		parents = append(parents, s.Parent)
	}
	if want := []int{1, -1, 0, -1}; !reflect.DeepEqual(parents, want) {
		t.Fatalf("parents = %v, want %v", parents, want)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, m := range v {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	sortedCopy := func(v []string) []string {
		out := append([]string(nil), v...)
		sort.Strings(out)
		return out
	}
	if got, want := names(doc.EndToEnd), sortedCopy(endToEndNames); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end names %v, benchmark prints %v", got, want)
	}
	if got, want := names(doc.PerLayer), sortedCopy(perLayerNames()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer names %v, benchmark prints %v", got, want)
	}
}
