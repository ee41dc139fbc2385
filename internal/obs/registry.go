// Package obs is the dependency-free observability core shared by the
// simulator and the live deployment (DESIGN.md §10): a metrics registry
// (atomic counters, gauges, fixed-bucket latency histograms with
// quantile estimates, labeled families) with Prometheus-text and JSON
// renderings, a per-workunit lifecycle tracer, and a leveled key=value
// logger for the live path.
//
// The package never reads a clock and never generates randomness: every
// recorded value is supplied by the caller in the caller's own time
// base. That is what lets the same registry observe a discrete-event
// simulation (virtual seconds) without perturbing it — attaching or
// detaching instrumentation cannot change a run's event order, RNG
// stream or Result.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the default histogram bounds, in seconds. They span
// 10 µs RPC handling up to multi-hour virtual-time waits so one bucket
// layout serves both time bases (wall-clock in real mode, virtual
// seconds in sim mode).
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000,
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the metric to stay monotone;
// this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d atomically.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Bounds are upper
// bucket edges in ascending order; observations above the last bound
// land in an implicit overflow bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last = overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the containing bucket, the standard
// Prometheus-style estimate. It returns 0 when the histogram is empty;
// observations in the overflow bucket resolve to the highest finite
// bound (the estimate saturates rather than extrapolating).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind tags what a family holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter | *Gauge | *Histogram
	order    []string
}

// labelKey joins label values; label values must not contain '\x1f'.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	default:
		c = newHistogram(f.bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Registry holds named metric families. Registration is get-or-create:
// asking for an existing name returns the existing instrument, so
// independent components can share one registry without coordination.
// Re-registering a name with a different type or label set panics — a
// programming error, caught loudly. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if new (nil bounds = LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, kindHistogram, bounds, nil).child(nil).(*Histogram)
}

// CounterVec returns the labeled counter family under name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// GaugeVec returns the labeled gauge family under name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// HistogramVec returns the labeled histogram family under name.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, bounds, labels)}
}

// FindHistogram returns the histogram under name with the given label
// values, or nil when it was never registered or observed. It is the
// post-run query path (fidelity stats) and never creates anything.
func (r *Registry) FindHistogram(name string, values ...string) *Histogram {
	if c := r.find(name, values); c != nil {
		if h, ok := c.(*Histogram); ok {
			return h
		}
	}
	return nil
}

// CounterValue returns the value of the counter under name with the
// given label values, or 0 when absent. Pure query; never creates.
func (r *Registry) CounterValue(name string, values ...string) int64 {
	if c := r.find(name, values); c != nil {
		if ctr, ok := c.(*Counter); ok {
			return ctr.Value()
		}
	}
	return 0
}

// GaugeValue returns the value of the gauge under name with the given
// label values, or 0 when absent. Pure query; never creates.
func (r *Registry) GaugeValue(name string, values ...string) float64 {
	if c := r.find(name, values); c != nil {
		if g, ok := c.(*Gauge); ok {
			return g.Value()
		}
	}
	return 0
}

func (r *Registry) find(name string, values []string) any {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || len(values) != len(f.labels) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.children[labelKey(values)]
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound in the metric's unit.
	LE float64 `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count int64 `json:"count"`
}

// MetricSnapshot is one metric child frozen at snapshot time.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counters and gauges.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/P50/P95/P99/Buckets carry histograms. The implicit
	// overflow bucket is Count minus the last bucket's cumulative count
	// (JSON cannot encode +Inf).
	Count   int64         `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	P50     float64       `json:"p50,omitempty"`
	P95     float64       `json:"p95,omitempty"`
	P99     float64       `json:"p99,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot freezes every registered metric, sorted by name then label
// values, so renderings are deterministic.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var out []MetricSnapshot
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		if len(f.labels) > 0 {
			sort.Strings(keys)
		}
		for _, key := range keys {
			c := f.children[key]
			snap := MetricSnapshot{Name: f.name, Type: f.kind.String(), Help: f.help}
			if len(f.labels) > 0 {
				snap.Labels = make(map[string]string, len(f.labels))
				for i, v := range strings.Split(key, "\x1f") {
					if i < len(f.labels) {
						snap.Labels[f.labels[i]] = v
					}
				}
			}
			switch m := c.(type) {
			case *Counter:
				snap.Value = float64(m.Value())
			case *Gauge:
				snap.Value = m.Value()
			case *Histogram:
				snap.Count = m.Count()
				snap.Sum = m.Sum()
				snap.P50 = m.Quantile(0.50)
				snap.P95 = m.Quantile(0.95)
				snap.P99 = m.Quantile(0.99)
				cum := int64(0)
				for i, b := range m.bounds {
					cum += m.buckets[i].Load()
					snap.Buckets = append(snap.Buckets, BucketCount{LE: b, Count: cum})
				}
			}
			out = append(out, snap)
		}
		f.mu.Unlock()
	}
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	var b strings.Builder
	last := ""
	for _, s := range snaps {
		if s.Name != last {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, s.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Type)
			last = s.Name
		}
		switch s.Type {
		case "histogram":
			for _, bkt := range s.Buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.Name, promLabels(s.Labels, "le", formatFloat(bkt.LE)), bkt.Count)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.Name, promLabels(s.Labels, "le", "+Inf"), s.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, promLabels(s.Labels), formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, promLabels(s.Labels), s.Count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, promLabels(s.Labels), formatFloat(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabels renders a label set (plus optional extra pair) as
// {k="v",...}, sorted, or "" when empty.
func promLabels(labels map[string]string, extra ...string) string {
	n := len(labels) + len(extra)/2
	if n == 0 {
		return ""
	}
	pairs := make([][2]string, 0, n)
	for k, v := range labels {
		pairs = append(pairs, [2]string{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	for i := 0; i+1 < len(extra); i += 2 {
		pairs = append(pairs, [2]string{extra[i], extra[i+1]})
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}
