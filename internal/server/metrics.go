package server

// The server's metric bundle: every handle the request path records into,
// resolved once at construction so handlers never touch the registry's maps.
// Label cardinality is fixed here by construction — endpoints and cache
// events are enums, HTTP codes are drawn from the small set the handlers can
// produce (anything else lands under code="other"). Request-derived strings
// (fingerprints, normalized queries) go to the slow-request log as span
// attributes, never into labels.

import (
	"strconv"

	"repro/internal/obs"
)

// the three instrumented JSON endpoints, as label values.
const (
	epQuery  = "query"
	epBatch  = "batch"
	epUpdate = "update"
)

//pdblint:labelenum
var endpoints = []string{epQuery, epBatch, epUpdate}

// statusCodes are the response codes the handlers emit; the exposition keeps
// one series per (endpoint, code) pair so the label space is 3 × len(this).
//
//pdblint:labelenum
var statusCodes = []int{200, 400, 404, 413, 422, 500, 503}

type serverMetrics struct {
	reg *obs.Registry

	// per-endpoint request counters and latency histograms
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	// responses[endpoint][code] — fixed map, read-only after construction.
	responses map[string]map[int]*obs.Counter

	// plan-cache events: hit/miss/evict plus coalesce (a hit that joined an
	// in-flight registration instead of finding a finished one).
	cacheHit, cacheMiss, cacheEvict, cacheCoalesce *obs.Counter

	// preprocessing vs evaluation split (the Prepare-once economics).
	prepareView *obs.Histogram // live-view registrations
	evalSeconds *obs.Histogram // override-lane passes on live views (assignment /query and /batch)

	batchLanes *obs.Histogram

	watchDropped *obs.Counter

	// ingest batcher: requests that shared a merged commit, and the size
	// (in updates) of every merged flush.
	ingestCoalesced *obs.Counter
	ingestBatchSize *obs.Histogram

	slowRequests *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:       reg,
		requests:  map[string]*obs.Counter{},
		latency:   map[string]*obs.Histogram{},
		responses: map[string]map[int]*obs.Counter{},
	}
	for _, ep := range endpoints {
		m.requests[ep] = reg.Counter("pdbd_http_requests_total",
			"requests admitted per endpoint", "endpoint", ep)
		m.latency[ep] = reg.Histogram("pdbd_http_request_seconds",
			"end-to-end request latency per endpoint",
			obs.LatencyBuckets(), "endpoint", ep)
		byCode := map[int]*obs.Counter{}
		for _, code := range statusCodes {
			byCode[code] = reg.Counter("pdbd_http_responses_total",
				"responses per endpoint and status code",
				"endpoint", ep, "code", strconv.Itoa(code))
		}
		byCode[0] = reg.Counter("pdbd_http_responses_total",
			"responses per endpoint and status code",
			"endpoint", ep, "code", "other")
		m.responses[ep] = byCode
	}
	m.cacheHit = reg.Counter("pdbd_plan_cache_events_total",
		"live-view plan cache events", "event", "hit")
	m.cacheMiss = reg.Counter("pdbd_plan_cache_events_total",
		"live-view plan cache events", "event", "miss")
	m.cacheEvict = reg.Counter("pdbd_plan_cache_events_total",
		"live-view plan cache events", "event", "evict")
	m.cacheCoalesce = reg.Counter("pdbd_plan_cache_events_total",
		"live-view plan cache events", "event", "coalesce")

	m.prepareView = reg.Histogram("pdbd_prepare_seconds",
		"preprocessing time per plan build", obs.LatencyBuckets(), "kind", "view")
	m.evalSeconds = reg.Histogram("pdbd_eval_seconds",
		"override-lane pass time on live views (assignment queries and batches)", obs.LatencyBuckets())

	m.batchLanes = reg.Histogram("pdbd_batch_lanes",
		"assignments carried per /batch request", obs.ExpBuckets(1, 2, 12))

	m.watchDropped = reg.Counter("pdbd_watch_dropped_total",
		"watch events dropped on slow subscribers")

	m.ingestCoalesced = reg.Counter("pdbd_ingest_coalesced_total",
		"update requests that shared a merged ingest commit")
	m.ingestBatchSize = reg.Histogram("pdbd_ingest_batch_size",
		"updates carried per merged ingest flush", obs.ExpBuckets(1, 2, 12))

	m.slowRequests = reg.Counter("pdbd_slow_requests_total",
		"requests exceeding the slow-query threshold")
	return m
}

// response resolves the counter for an (endpoint, code) pair; unexpected
// codes share the "other" series rather than minting new label values.
func (m *serverMetrics) response(ep string, code int) *obs.Counter {
	byCode := m.responses[ep]
	if c, ok := byCode[code]; ok {
		return c
	}
	return byCode[0]
}

// registerStoreGauges wires the pull gauges that mirror live store state.
func (s *Server) registerStoreGauges() {
	reg := s.metrics.reg
	reg.GaugeFunc("pdbd_store_seq",
		"commit sequence of the live store",
		func() float64 { return float64(s.store.Seq()) })
	reg.GaugeFunc("pdbd_store_facts",
		"live facts in the store",
		func() float64 { return float64(s.store.NumLive()) })
	reg.GaugeFunc("pdbd_store_views",
		"registered live views",
		func() float64 { return float64(s.store.NumViews()) })
	reg.GaugeFunc("pdbd_http_inflight",
		"requests currently being served",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("pdbd_watch_subscribers",
		"open /watch streams",
		func() float64 { return float64(s.nWatchers.Load()) })
	reg.GaugeFunc("pdbd_plan_cache_size",
		"entries in the live-view plan cache",
		func() float64 { _, _, _, n := s.cache.stats(); return float64(n) })
}

// registerWALGauges mirrors the attached WAL's counters as pull gauges (the
// WAL's own histograms — fsync latency, flush batch size — are registered by
// wal.NewMetrics on the same registry).
func (s *Server) registerWALGauges() {
	reg := s.metrics.reg
	reg.GaugeFunc("pdbd_wal_synced_seq",
		"highest commit sequence made durable",
		func() float64 { return float64(s.wal.Stats().SyncedSeq) })
	reg.GaugeFunc("pdbd_wal_queue_depth",
		"commits appended but not yet flushed",
		func() float64 { return float64(s.wal.Stats().QueueDepth) })
	reg.GaugeFunc("pdbd_wal_snapshot_seq",
		"commit sequence of the newest snapshot",
		func() float64 { return float64(s.wal.Stats().SnapshotSeq) })
	reg.GaugeFunc("pdbd_wal_log_bytes",
		"bytes in the live log segment",
		func() float64 { return float64(s.wal.Stats().LogBytes) })
}
