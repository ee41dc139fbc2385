package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	if got := r.CounterValue("c_total"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.GaugeValue("g"); got != 1.5 {
		t.Fatalf("GaugeValue = %g, want 1.5", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %g, want 0", got)
	}
	// 100 observations uniform in (0,1]: every one lands in the first
	// bucket, so quantiles interpolate inside [0,1].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-0.5) > 1e-9 {
		t.Fatalf("p50 = %g, want 0.5", p50)
	}
	if p99 := h.Quantile(0.99); math.Abs(p99-0.99) > 1e-9 {
		t.Fatalf("p99 = %g, want 0.99", p99)
	}
	// Overflow saturates at the top bound.
	h.Observe(1e9)
	if top := h.Quantile(1); top != 8 {
		t.Fatalf("overflow quantile = %g, want 8 (top bound)", top)
	}
	if h.Count() != 101 {
		t.Fatalf("count = %d, want 101", h.Count())
	}
}

// TestLatencyBucketsResolveMicroseconds pins the sub-millisecond
// floor: 90 µs observations (a scheduler RPC) get their own bucket
// instead of interpolating inside a 0–1 ms one.
func TestLatencyBucketsResolveMicroseconds(t *testing.T) {
	h := newHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(90e-6)
	}
	if p50 := h.Quantile(0.5); p50 <= 50e-6 || p50 > 100e-6 {
		t.Fatalf("p50 of 90 µs observations = %g s, want in (50 µs, 100 µs]", p50)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound: upper-inclusive
	h.Observe(1.5)
	h.Observe(99)
	if got := h.buckets[0].Load(); got != 1 {
		t.Fatalf("bucket le=1 = %d, want 1", got)
	}
	if got := h.buckets[1].Load(); got != 1 {
		t.Fatalf("bucket le=2 = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

func TestVecFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rpc_total", "rpcs", "handler")
	v.With("scheduler").Add(3)
	v.With("upload").Inc()
	v.With("scheduler").Inc()
	if got := r.CounterValue("rpc_total", "scheduler"); got != 4 {
		t.Fatalf("scheduler count = %d, want 4", got)
	}
	hv := r.HistogramVec("rpc_seconds", "rpc latency", []float64{1, 10}, "handler")
	hv.With("scheduler").Observe(0.5)
	if h := r.FindHistogram("rpc_seconds", "scheduler"); h == nil || h.Count() != 1 {
		t.Fatalf("FindHistogram = %v", h)
	}
	if h := r.FindHistogram("rpc_seconds", "nope"); h != nil {
		t.Fatal("FindHistogram must not create children")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("type-mismatched re-registration must panic")
		}
	}()
	r.Gauge("rpc_total", "oops")
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a").Add(7)
	r.CounterVec("b_total", "counts b", "k").With(`va"l`).Inc()
	r.Histogram("h_seconds", "h", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP a_total counts a\n# TYPE a_total counter\na_total 7\n",
		"b_total{k=\"va\\\"l\"} 1\n",
		"# TYPE h_seconds histogram\n",
		`h_seconds_bucket{le="1"} 0`,
		`h_seconds_bucket{le="2"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_sum 1.5\nh_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two renderings are identical.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("prometheus rendering is not deterministic")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot must be JSON-encodable (no Inf/NaN): %v", err)
	}
	var back []MetricSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("snapshot entries = %d, want 2", len(back))
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "").Inc()
				r.HistogramVec("h_seconds", "", nil, "k").With("x").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c_total"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.FindHistogram("h_seconds", "x").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestTracer(t *testing.T) {
	var jsonl bytes.Buffer
	tr := NewTracer(&jsonl)
	tr.Record(SpanEvent{WU: 1, Kind: KindCreated, T: 0, Name: "e0s0"})
	tr.Record(SpanEvent{WU: 1, Kind: KindAssigned, T: 2.5, Client: "c1", Result: 10})
	tr.Record(SpanEvent{WU: 2, Kind: KindCreated, T: 0, Name: "e0s1"})
	tr.Record(SpanEvent{WU: 1, Kind: KindValidated, T: 9, Client: "c1", Result: 10})

	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	sp, ok := tr.Span(1)
	if !ok || sp.Name != "e0s0" || len(sp.Events) != 3 {
		t.Fatalf("Span(1) = %+v, %v", sp, ok)
	}
	if at, ok := sp.At(KindAssigned); !ok || at != 2.5 {
		t.Fatalf("At(assigned) = %g, %v", at, ok)
	}
	if n := sp.Count(KindValidated); n != 1 {
		t.Fatalf("Count(validated) = %d", n)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].WU != 1 || spans[1].WU != 2 {
		t.Fatalf("Spans order wrong: %+v", spans)
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL lines = %d, want 4", len(lines))
	}
	var ev SpanEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.WU != 1 || ev.Kind != KindAssigned || ev.Client != "c1" {
		t.Fatalf("JSONL event = %+v", ev)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}

	// A nil tracer ignores everything.
	var nilT *Tracer
	nilT.Record(SpanEvent{WU: 1, Kind: KindCreated})
	if nilT.Len() != 0 || nilT.Err() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestLogger(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debug("hidden")
	l.Info("client joined", "client", "c1", "slots", 2)
	l.Warn("upload failed", "err", "connection refused: retry 3")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug line leaked below min level:\n%s", out)
	}
	if !strings.Contains(out, "level=info msg=\"client joined\" client=c1 slots=2") {
		t.Fatalf("info line malformed:\n%s", out)
	}
	if !strings.Contains(out, `err="connection refused: retry 3"`) {
		t.Fatalf("values with spaces must be quoted:\n%s", out)
	}
	var nilL *Logger
	nilL.Warn("must not panic")
	if nilL.Enabled(LevelWarn) {
		t.Fatal("nil logger must report disabled")
	}
}
