package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/wal"
)

// scrapeMetrics fetches /metrics and returns every sample keyed by its full
// series name (metric name + label block, exactly as exposed).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndToEnd drives every instrumented path of a durable server —
// live queries (miss then hit), an assignment query, a batch, a durable
// update — and asserts the exposition carries the series the acceptance
// criteria name, with sane values, and none of the retired snapshot-plan
// series.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	mem := wal.NewMemBackend()
	w, rec, err := wal.Open(wal.Options{
		Backend: mem, BatchSize: 8, Sync: wal.SyncAlways,
		Metrics: wal.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 0 {
		t.Fatalf("empty backend recovered seq %d", rec.Seq)
	}
	st, err := incr.NewStore(rstTID(0.9, 0.8, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	s := NewFromStore(st, Config{Metrics: reg})
	s.AttachWAL(w)
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	q := map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)"}
	var qr queryResponse
	postJSON(t, ts.URL+"/query", q, &qr) // miss: registers the view
	postJSON(t, ts.URL+"/query", q, &qr) // hit
	if !qr.Cached {
		t.Fatal("second query not served from cache")
	}
	postJSON(t, ts.URL+"/query", map[string]any{
		"query": "R(?x) & S(?x,?y) & T(?y)", "assignment": map[string]float64{"0": 0.5},
	}, &qr)
	postJSON(t, ts.URL+"/batch", map[string]any{
		"query":       "R(?x) & S(?x,?y) & T(?y)",
		"assignments": []map[string]float64{{"0": 0.1}, {"0": 0.9}},
	}, nil)
	postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []map[string]any{{"op": "set", "id": 0, "p": 0.55}},
	}, nil)
	postJSON(t, ts.URL+"/query", map[string]any{"query": "not a query"}, nil) // 400

	m := scrapeMetrics(t, ts.URL)

	// The acceptance criteria: latency histograms for all three endpoints
	// and the WAL fsync histogram.
	wantPositive := []string{
		`pdbd_http_request_seconds_count{endpoint="query"}`,
		`pdbd_http_request_seconds_sum{endpoint="query"}`,
		`pdbd_http_request_seconds_count{endpoint="batch"}`,
		`pdbd_http_request_seconds_count{endpoint="update"}`,
		`wal_fsync_seconds_count`,
		`wal_fsync_seconds_sum`,
		`wal_flush_records_count`,
		`wal_snapshot_seconds_count`,
		`pdbd_http_requests_total{endpoint="query"}`,
		`pdbd_http_responses_total{endpoint="query",code="200"}`,
		`pdbd_http_responses_total{endpoint="query",code="400"}`,
		`pdbd_plan_cache_events_total{event="hit"}`,
		`pdbd_plan_cache_events_total{event="miss"}`,
		`pdbd_prepare_seconds_count{kind="view"}`,
		`pdbd_eval_seconds_count`,
		`pdbd_batch_lanes_count`,
		`incr_commits_total`,
		`incr_commit_seconds_count`,
		`pdbd_store_facts`,
		`pdbd_store_views`,
		`pdbd_wal_synced_seq`,
	}
	for _, name := range wantPositive {
		v, ok := m[name]
		if !ok {
			t.Errorf("series %s missing from exposition", name)
			continue
		}
		if v <= 0 {
			t.Errorf("series %s = %v, want > 0", name, v)
		}
	}
	// Override requests run on the live views: no snapshot-plan cache, no
	// snapshot Prepare, no per-shard snapshot evaluation.
	for name := range m {
		for _, gone := range []string{"pdbd_frozen_cache_events_total", `kind="frozen"`, "pdbd_shard_eval_seconds"} {
			if strings.Contains(name, gone) {
				t.Errorf("retired series %s still exposed", name)
			}
		}
	}
	if got := m[`pdbd_http_request_seconds_count{endpoint="query"}`]; got != 4 {
		t.Errorf("query request count = %v, want 4", got)
	}
	if got := m[`pdbd_batch_lanes_sum`]; got != 2 {
		t.Errorf("batch lanes sum = %v, want 2", got)
	}
	if got := m[`pdbd_store_seq`]; got != float64(s.Store().Seq()) {
		t.Errorf("pdbd_store_seq = %v, store says %d", got, s.Store().Seq())
	}
	// The cumulative +Inf bucket of a histogram equals its count.
	if inf, cnt := m[`pdbd_http_request_seconds_bucket{endpoint="query",le="+Inf"}`],
		m[`pdbd_http_request_seconds_count{endpoint="query"}`]; inf != cnt {
		t.Errorf("+Inf bucket %v != count %v", inf, cnt)
	}

	// The /statsz quantile view is derived from the same histograms.
	stz := s.Stats()
	lat, ok := stz.Latency[epQuery]
	if !ok || lat.Count != 4 {
		t.Fatalf("statsz latency[query] = %+v, want count 4", lat)
	}
	if lat.P50us <= 0 || lat.P99us < lat.P50us {
		t.Fatalf("statsz quantiles not ordered: %+v", lat)
	}
	if sn, ok := s.LatencySnapshot(epQuery); !ok || sn.Count != 4 {
		t.Fatalf("LatencySnapshot(query) count = %d, want 4", sn.Count)
	}
	if _, ok := s.LatencySnapshot("nope"); ok {
		t.Fatal("LatencySnapshot accepted an unknown endpoint")
	}
}

// TestSlowQueryLog sets a 1ns threshold so every request is slow, then
// checks the structured record: endpoint, total, and a stage breakdown whose
// durations sum to within 10% of the logged end-to-end latency (the span
// contract the tracer guarantees by construction).
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, err := New(rstTID(0.9, 0.8, 0.7), Config{SlowQuery: time.Nanosecond, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	postJSON(t, ts.URL+"/query", map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)"}, nil)
	postJSON(t, ts.URL+"/query", map[string]any{
		"query": "R(?x) & S(?x,?y) & T(?y)", "assignment": map[string]float64{"0": 0.5},
	}, nil)
	postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []map[string]any{{"op": "set", "id": 0, "p": 0.5}},
	}, nil)

	type record struct {
		Msg     string  `json:"msg"`
		Level   string  `json:"level"`
		ReqID   uint64  `json:"request_id"`
		Endpt   string  `json:"endpoint"`
		Code    int     `json:"code"`
		TotalUs float64 `json:"total_us"`
		Stages  string  `json:"stages"`
		Path    string  `json:"path"`
		Cached  *bool   `json:"cached"`
	}
	var slow []record
	dec := json.NewDecoder(&buf)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if r.Msg == "slow request" {
			slow = append(slow, r)
		}
	}
	if len(slow) != 3 {
		t.Fatalf("got %d slow-request records, want 3", len(slow))
	}
	wantEndpoints := map[string]bool{epQuery: false, epUpdate: false}
	for _, r := range slow {
		if r.Level != "WARN" {
			t.Errorf("slow record level %q, want WARN", r.Level)
		}
		if r.Code != 200 {
			t.Errorf("slow record code %d, want 200", r.Code)
		}
		if r.ReqID == 0 {
			t.Error("slow record has no request id")
		}
		if r.TotalUs <= 0 || r.Stages == "" {
			t.Fatalf("degenerate slow record: %+v", r)
		}
		wantEndpoints[r.Endpt] = true

		// Stage durations must tile the request: sum within 10% of total.
		var sum float64
		for _, part := range strings.Fields(r.Stages) {
			name, val, ok := strings.Cut(part, "=")
			if !ok || name == "" || !strings.HasSuffix(val, "us") {
				t.Fatalf("unparseable stage %q in %q", part, r.Stages)
			}
			us, err := strconv.ParseFloat(strings.TrimSuffix(val, "us"), 64)
			if err != nil {
				t.Fatalf("stage %q: %v", part, err)
			}
			sum += us
		}
		if rel := math.Abs(sum-r.TotalUs) / r.TotalUs; rel > 0.10 {
			t.Errorf("endpoint %s: stages sum %.1fus vs total %.1fus (off %.1f%%)",
				r.Endpt, sum, r.TotalUs, 100*rel)
		}
	}
	for ep, seen := range wantEndpoints {
		if !seen {
			t.Errorf("no slow record for endpoint %s", ep)
		}
	}
	// The query records carry the handler's span attributes.
	for _, r := range slow {
		if r.Endpt == epQuery && r.Path == "" {
			t.Errorf("query slow record missing path attr: %+v", r)
		}
	}
	if got := s.Stats().SlowRequests; got != 3 {
		t.Errorf("statsz slow_requests = %d, want 3", got)
	}
}

// TestMetricsReachableWhileDraining: scrapers keep working through a drain,
// like /healthz does.
func TestMetricsReachableWhileDraining(t *testing.T) {
	s, err := New(rstTID(0.9, 0.8, 0.7), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	postJSON(t, ts.URL+"/query", map[string]any{"query": "R(?x)"}, nil)
	if !s.Shutdown(time.Second) {
		t.Fatal("shutdown did not drain")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics during drain: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"R(?x)"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/query during drain: status %d, want 503", resp.StatusCode)
	}
}
