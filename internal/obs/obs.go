// Package obs is the simulator's dependency-free observability core:
// atomic counters, gauges, lock-free sharded histograms, and pipeline
// stage timers (Stage) that feed one measured duration to a histogram
// and a trace span alike, collected in a Registry that snapshots to
// JSON and renders the Prometheus text exposition format.
//
// The package exists because BackFi's decoder is a multi-stage physical
// pipeline (self-interference cancellation → preamble detection →
// channel estimation → MRC demod → Viterbi) whose paper-level claims
// are stage-level quantities — the ~80 dB SIC residual of Fig. 7, the
// SNR-vs-distance curves of Figs. 9/10 — while the figure harnesses
// only report end-to-end summaries. Instruments registered here let a
// regression inside one stage show up immediately instead of as an
// unexplained drift in a figure.
//
// Design contract, relied on by every instrumented package:
//
//   - A nil *Registry is valid everywhere and means "disabled". Every
//     lookup on a nil Registry returns a nil instrument, and every
//     method on a nil instrument is a no-op that performs no time
//     syscalls and no allocation, so the hot path pays only nil checks
//     (verified by BenchmarkRunPacket* in internal/core and the nil
//     benchmarks in this package).
//   - Instruments are concurrency-safe via atomics only — observation
//     never takes a lock — so the deterministic parallel engine can
//     record from every worker without perturbing scheduling. Metrics
//     observe the computation; they never feed back into it, which is
//     what keeps figure outputs byte-identical with metrics on or off
//     (see internal/experiments' determinism tests).
//   - Series identity is (name, sorted label pairs). Rendering orders
//     families and series lexicographically, so output is reproducible
//     and the Prometheus text form can be golden-file tested.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// kind discriminates the instrument families a Registry can hold.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family groups every labelled series of one metric name.
type family struct {
	name string
	help string
	kind kind
	// bounds are the histogram bucket upper bounds shared by all series
	// of a histogram family (nil otherwise). The first registration
	// wins; later registrations with different bounds reuse them so the
	// family stays renderable.
	bounds []float64
	// series maps the rendered label signature (`{k="v",…}` or "") to
	// the instrument (*Counter, *Gauge, or *Histogram).
	series map[string]any
}

// Registry holds the process's instruments. The zero value is not
// usable; call NewRegistry. A nil *Registry is the documented
// "metrics disabled" state.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelSignature renders alternating key/value pairs as a canonical
// Prometheus label block, sorted by key. It panics on an odd number of
// strings — a programmer error at the registration site.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// MaxSeriesPerFamily bounds label cardinality: once a family holds
// this many series, further distinct label sets collapse into one
// shared overflow series (labelled overflow="true") instead of growing
// the map without bound. Metrics must never be able to exhaust memory
// because a caller put an unbounded value (session id, error string)
// in a label.
const MaxSeriesPerFamily = 512

// overflowSignature is the rendered label block of the shared
// overflow series.
const overflowSignature = `{overflow="true"}`

// lookup returns (or creates) the series for (name, labels), verifying
// the family kind. Registration is idempotent: the same (name, labels)
// always returns the same instrument.
func (r *Registry) lookup(k kind, name, help string, bounds []float64, labels []string) any {
	sig := labelSignature(labels)

	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if inst, ok := f.series[sig]; ok && f.kind == k {
			r.mu.RUnlock()
			return inst
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: bounds, series: map[string]any{}}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.kind, k))
	}
	if inst, ok := f.series[sig]; ok {
		return inst
	}
	if sig != "" && len(f.series) >= MaxSeriesPerFamily {
		sig = overflowSignature
		if inst, ok := f.series[sig]; ok {
			return inst
		}
	}
	var inst any
	switch k {
	case kindCounter:
		inst = &Counter{}
	case kindGauge:
		inst = &Gauge{}
	case kindHistogram:
		inst = newHistogram(f.bounds)
	}
	f.series[sig] = inst
	return inst
}

// Counter returns the counter series for (name, labels), creating it on
// first use. Labels are alternating key/value strings. Nil registries
// return a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(kindCounter, name, help, nil, labels).(*Counter)
}

// Gauge returns the gauge series for (name, labels). Nil registries
// return a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(kindGauge, name, help, nil, labels).(*Gauge)
}

// Histogram returns the histogram series for (name, labels) with the
// given bucket upper bounds (ascending; +Inf is implicit). The first
// registration of a family fixes the bounds for every series. Nil
// registries return a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(kindHistogram, name, help, bounds, labels).(*Histogram)
}

// familyView is a race-free copy of one family's structure: the maps
// are snapshotted under the registry lock, while the instruments
// themselves are atomic and safe to read afterwards.
type familyView struct {
	name   string
	help   string
	kind   kind
	bounds []float64
	series []seriesView
}

type seriesView struct {
	sig  string // rendered label block, "" for unlabelled
	inst any
}

// collect snapshots the registry structure in deterministic order:
// families by name, series by label signature.
func (r *Registry) collect() []familyView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		fv := familyView{name: f.name, help: f.help, kind: f.kind, bounds: f.bounds}
		for sig, inst := range f.series {
			fv.series = append(fv.series, seriesView{sig: sig, inst: inst})
		}
		sort.Slice(fv.series, func(i, j int) bool { return fv.series[i].sig < fv.series[j].sig })
		out = append(out, fv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
