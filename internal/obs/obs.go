// Package obs is the observability substrate of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges and log-bucketed
// histograms with quantile extraction), a Prometheus text-exposition writer,
// and a lightweight per-request span tracer threaded through
// context.Context.
//
// The design constraints come from where the instrumentation sits — inside
// the cached /query hot path, the store's commit critical section and the
// WAL's group-commit flusher:
//
//   - Recording is wait-free: a counter increment is one atomic add, a
//     histogram observation is a binary search over ~25 bucket bounds plus
//     two atomic adds. No locks, no allocation, no time formatting.
//   - Handles are resolved once: callers hold *Counter / *Histogram
//     pointers obtained at wiring time, so the hot path never touches the
//     registry's maps.
//   - Cardinality is bounded by construction: label values are fixed at
//     registration (endpoints, outcome enums, fsync policies) — never
//     request-derived strings like query fingerprints, which belong in logs.
//
// Reading is the slow, coherent-enough side: WritePrometheus and
// Histogram.Snapshot read the atomics without stopping writers, so a scrape
// taken during a storm of updates may be internally off by the few
// observations that landed mid-read — the standard Prometheus contract.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 metric (queue depths, subscriber counts).
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric kinds, for type-mismatch detection and the TYPE exposition line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance of a metric family: exactly one of the
// value fields is set, matching the family's kind.
type series struct {
	labels []string // k1, v1, k2, v2, ... (registration order)
	ctr    *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name (and therefore one HELP /
// TYPE declaration in the exposition).
type family struct {
	name   string
	help   string
	kind   string
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and hands out their series handles.
// Registration methods are idempotent: asking for the same name + label set
// again returns the existing handle, so wiring code can run per-instance
// without double-registration bookkeeping. Asking for an existing name with
// a different kind panics — that is a programming error, not a runtime
// condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter named name with the given label pairs,
// creating it on first use. labels alternate key, value.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getOrCreate(name, help, kindCounter, labels, func() *series {
		return &series{ctr: &Counter{}}
	})
	return s.ctr
}

// Gauge returns the gauge named name with the given label pairs, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.getOrCreate(name, help, kindGauge, labels, func() *series {
		return &series{g: &Gauge{}}
	})
	return s.g
}

// GaugeFunc registers a pull gauge: fn is called at exposition time. The
// same name + labels keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrCreate(name, help, kindGauge, labels, func() *series {
		return &series{gf: fn}
	})
}

// Histogram returns the histogram named name with the given label pairs and
// bucket upper bounds, creating it on first use. An existing histogram keeps
// its original buckets, so a reader that only looks a histogram up may pass
// nil bounds; a histogram created with nil bounds gets LatencyBuckets.
// bounds must be strictly increasing; the overflow (+Inf) bucket is
// implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.getOrCreate(name, help, kindHistogram, labels, func() *series {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		return &series{h: NewHistogram(bounds)}
	})
	return s.h
}

// getOrCreate resolves (or creates) the series for name + labels, enforcing
// name validity and kind consistency.
func (r *Registry) getOrCreate(name, help, kind string, labels []string, mk func() *series) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: labels must be key/value pairs, got %d strings", name, len(labels)))
	}
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, labels[i]))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	key := seriesKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := mk()
	s.labels = append([]string(nil), labels...)
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

func seriesKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	key := ""
	for i := 0; i < len(labels); i += 2 {
		key += labels[i] + "\x00" + labels[i+1] + "\x00"
	}
	return key
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Histogram is a fixed-bucket histogram: counts per bucket, a running sum,
// all maintained with atomics so concurrent observers never contend on a
// lock. Buckets are upper-bound inclusive (Prometheus `le` semantics) with
// an implicit +Inf overflow bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram builds an unregistered histogram over the given strictly
// increasing upper bounds (most callers want Registry.Histogram instead;
// this form exists for metric consumers outside a registry, e.g. CLI
// latency summaries).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v <= %v", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// ExpBuckets returns n exponentially growing upper bounds starting at lo:
// lo, lo*factor, lo*factor², ... — the log-bucketed layout whose relative
// quantile error is bounded by the growth factor.
func ExpBuckets(lo, factor float64, n int) []float64 {
	if lo <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants lo > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default layout for request/operation latencies in
// seconds: 1µs up to ~16.8s doubling each bucket (25 buckets), so every
// quantile is resolved within a factor of 2 and interpolation does the rest.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 25) }

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s finds the first bound >= v for `le` semantics
	// (bound-equal observations land in the bucket they bound).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the one-liner for
// latency histograms: defer-friendly and unit-consistent with the
// *_seconds naming convention.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, the unit
// quantiles and expositions are computed from.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, exclusive of the +Inf overflow
	Counts []uint64  // per-bucket (not cumulative); len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current counts and sum. Concurrent
// observers keep running; the snapshot may miss observations landing
// mid-copy (standard scrape semantics).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Quantile returns the q-quantile (0 < q <= 1) of the observations, exact at
// bucket granularity: the returned value lies in the same bucket as the true
// sample quantile, linearly interpolated within it. Returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Quantile is Histogram.Quantile over a snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based position of the quantile observation in the sorted
	// sample (ceil, the standard empirical quantile), so Quantile(1) is the
	// max bucket and Quantile(0+) the min.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(s.Bounds) {
				// Overflow bucket: no finite upper bound; report the largest
				// finite bound (the value is at least that).
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}
