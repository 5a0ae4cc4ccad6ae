package obs

import "testing"

// The nil benchmarks quantify the disabled-metrics cost: each op must
// compile to a nil check (sub-nanosecond), which is what lets the hot
// path keep its instrumentation unconditionally.

func BenchmarkNilCounterInc(b *testing.B) {
	var r *Registry
	c := r.Counter("c", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var r *Registry
	h := r.Histogram("h", "h", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.5)
	}
}

func BenchmarkNilStage(b *testing.B) {
	var r *Registry
	st := r.Stage("s")
	var c TraceCtx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Start(c).End()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "h", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("h", "h", DurationBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0
		for pb.Next() {
			h.Observe(float64(v&1023) * 1e-6)
			v++
		}
	})
}

func BenchmarkStage(b *testing.B) {
	st := NewRegistry().Stage("s")
	var c TraceCtx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Start(c).End()
	}
}
