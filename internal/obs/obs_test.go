package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "endpoint", "/query")
	b := r.Counter("x_total", "x", "endpoint", "/query")
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	c := r.Counter("x_total", "x", "endpoint", "/batch")
	if a == c {
		t.Fatal("different labels should return a different series")
	}
	h1 := r.Histogram("h_seconds", "h", LatencyBuckets())
	h2 := r.Histogram("h_seconds", "h", LatencyBuckets())
	if h1 != h2 {
		t.Fatal("same histogram should be returned")
	}
	// A lookup with nil bounds finds the existing histogram, or creates an
	// empty one on the default buckets.
	if r.Histogram("h_seconds", "", nil) != h1 {
		t.Fatal("nil-bounds lookup should return the existing histogram")
	}
	if sn := r.Histogram("absent_seconds", "", nil).Snapshot(); sn.Count != 0 || sn.Quantile(0.5) != 0 {
		t.Fatalf("nil-bounds lookup of an absent histogram = %+v, want empty", sn)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name should panic")
		}
	}()
	r.Gauge("dual_total", "x")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q should panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("odd label list should panic")
			}
		}()
		r.Counter("ok_total", "x", "lonely")
	}()
}

// TestConcurrentMetricUpdates hammers one counter, one gauge and one
// histogram from many goroutines while a reader scrapes — run under -race
// in CI, and the final counts must be exact (atomics lose nothing).
func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	g := r.Gauge("cc_gauge", "g")
	h := r.Histogram("cc_seconds", "h", LatencyBuckets())
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
				_ = h.Quantile(0.99)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%1000+1) * 1e-6)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}
