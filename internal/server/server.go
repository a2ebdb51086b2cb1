// Package server implements pdbd's HTTP/JSON query service over the
// engine's serving stack: a live incr.Store absorbs updates while its
// registered views — one compiled plan per query shape — answer probability
// requests.
//
// The request regime follows query answering under updates (Berkholz et
// al.'s FO+MOD maintenance, Kara et al.'s free access patterns): pay the
// preprocessing (Prepare) once per *query shape*, then answer every request
// as pure numeric work against maintained state. Concretely:
//
//   - POST /query normalizes the conjunctive query (core.NormalizeCQ) and
//     hits an LRU plan cache keyed by the normalized fingerprint, so
//     textually different but identical CQs share one registered live view;
//     cache misses register the view single-flight. A request carrying an
//     explicit probability assignment is answered by the same view as a
//     one-lane override pass (incr.View.ProbabilityBatch).
//   - POST /batch answers many probability assignments in one multi-lane
//     override pass over the live view: only the spines of the overridden
//     facts are recomputed, at the view's current commit; per-lane failures
//     surface individually (core.LaneErrors), healthy lanes keep their
//     values. "parallel": true is accepted and ignored.
//   - POST /update routes set/insert/delete batches through
//     Store.ApplyBatch: one commit, shared dirty spines, returning the
//     commit sequence and the store's work counters. With Config.IngestBatch
//     set, concurrent requests coalesce through the ingest batcher into
//     shared commits (group-commit style; per-request error semantics are
//     preserved), so write-heavy traffic pays one delta pass per window
//     instead of one commit per request.
//   - GET /watch streams every commit as a server-sent event in the
//     pdbio.WatchEvent delta format: sequence number plus the refreshed
//     probabilities of only the views the commit moved, in commit order —
//     the push channel of the incremental-maintenance layer. ?full=1 opts
//     into the legacy full-state frames.
//
// /healthz and /statsz expose liveness and the serving counters; Shutdown
// drains in-flight requests and closes watch streams.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/pdbio"
	"repro/internal/rel"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value is serviceable: a 64-entry plan
// cache, default engine options.
type Config struct {
	// CacheSize bounds the live-view plan cache. <= 0 means 64.
	CacheSize int
	// MaxBatchLanes caps the number of assignments one /batch request may
	// carry; larger requests are rejected with 413 before any evaluation
	// (each lane widens every row block of the sweep, so the cap bounds the
	// request's memory footprint). <= 0 means 1024.
	MaxBatchLanes int
	// IngestBatch enables the /update ingest batcher and caps the number of
	// updates one merged commit may carry: concurrent update requests
	// coalesce into shared ApplyBatch commits (per-request 422 semantics
	// preserved), so N writers queue behind one delta pass instead of
	// serializing N commits. <= 0 disables batching: every request commits
	// alone, the pre-batcher behavior.
	IngestBatch int
	// IngestMaxWait is how long the batch leader holds an open window for
	// more requests to join. 0 coalesces only the requests that queued while
	// the previous commit was in flight — no added latency, group-commit
	// style; a positive wait trades latency for bigger batches.
	IngestMaxWait time.Duration
	// Options are passed to every Prepare/RegisterView.
	Options core.Options
	// Metrics is the registry the server's metric families are registered
	// on (pdbd shares one registry between the server and the WAL so
	// /metrics is a single exposition). nil creates a private registry.
	Metrics *obs.Registry
	// SlowQuery is the end-to-end latency threshold above which a request
	// is counted slow and logged with its per-stage span breakdown.
	// <= 0 disables the slow-request log (the trace is still recorded).
	SlowQuery time.Duration
	// Logger receives the server's structured log records (slow requests,
	// watch-drop warnings). nil uses slog.Default().
	Logger *slog.Logger
}

// Server is the query service: an incr.Store of the loaded instance, the
// plan caches, and the HTTP handlers. Create with New, serve with
// http.Server{Handler: s}, stop with Shutdown.
type Server struct {
	store *incr.Store
	cfg   Config
	mux   *http.ServeMux

	cache  *planCache
	wal    *wal.WAL       // nil when the server runs without durability
	ingest *ingestBatcher // nil when update batching is disabled

	metrics *serverMetrics
	logger  *slog.Logger
	reqSeq  atomic.Uint64 // slow-log request ids

	viewMu sync.Mutex
	viewFP map[*incr.View]string // registered view -> fingerprint (for /watch)
	viewQ  map[*incr.View]string // registered view -> normalized query (for snapshots)

	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}
	inflight  atomic.Int64

	nQueries    atomic.Uint64
	nBatchReqs  atomic.Uint64
	nBatchLanes atomic.Uint64
	nUpdateReqs atomic.Uint64
	nUpdates    atomic.Uint64
	nPrepares   atomic.Uint64 // view registrations
	nWatchers   atomic.Int64
	nDropped    atomic.Uint64 // watch events dropped on slow consumers
}

// New builds a server over a snapshot of the TID instance t (the store is
// the mutable handle from here on, fed by /update).
func New(t *pdb.TID, cfg Config) (*Server, error) {
	st, err := incr.NewStore(t)
	if err != nil {
		return nil, err
	}
	return NewFromStore(st, cfg), nil
}

// NewFromStore builds a server over an existing live store — the warm
// restart path, where the store comes out of WAL recovery instead of a
// parsed instance.
func NewFromStore(st *incr.Store, cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.MaxBatchLanes <= 0 {
		cfg.MaxBatchLanes = 1024
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		store:   st,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newServerMetrics(reg),
		logger:  logger,
		viewMu:  sync.Mutex{},
		viewFP:  map[*incr.View]string{},
		viewQ:   map[*incr.View]string{},
		drainCh: make(chan struct{}),
	}
	s.cache = newPlanCache(cfg.CacheSize, func(v *incr.View) {
		s.store.UnregisterView(v)
		s.viewMu.Lock()
		delete(s.viewFP, v)
		delete(s.viewQ, v)
		s.viewMu.Unlock()
	})
	s.cache.instrument(s.metrics.cacheHit, s.metrics.cacheMiss,
		s.metrics.cacheEvict, s.metrics.cacheCoalesce)
	// The server owns the store's metric wiring: commit latency, spine work
	// and routing outcomes land on the same registry as the HTTP families.
	st.SetMetrics(incr.NewMetrics(reg))
	if cfg.IngestBatch > 0 {
		s.ingest = newIngestBatcher(st, cfg.IngestBatch, cfg.IngestMaxWait, s.drainCh, s.metrics)
	}
	s.registerStoreGauges()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metrics", reg.Handler())
	return s
}

// AttachWAL makes the server durable: every commit the store acknowledges
// from here on is logged through w first, and snapshots record the
// currently registered view queries so a restart re-registers them warm.
// Attach before serving traffic; Shutdown closes the log (final flush +
// clean snapshot).
func (s *Server) AttachWAL(w *wal.WAL) {
	s.wal = w
	w.Attach(s.store, s.ViewQueries)
	s.registerWALGauges()
}

// ViewQueries returns the normalized query text of every currently cached
// live view, sorted — the snapshot metadata that makes restarts warm.
func (s *Server) ViewQueries() []string {
	s.viewMu.Lock()
	out := make([]string, 0, len(s.viewQ))
	for _, q := range s.viewQ {
		out = append(out, q)
	}
	s.viewMu.Unlock()
	sort.Strings(out)
	return out
}

// Store exposes the underlying live store (tests and embedders; handlers go
// through it too).
func (s *Server) Store() *incr.Store { return s.store }

// Preregister parses, normalizes and registers a query shape ahead of
// traffic, so the first client asking it is already a cache hit (pdbd -q).
func (s *Server) Preregister(raw string) error {
	nq, fp, err := parseQuery(raw)
	if err != nil {
		return err
	}
	_, _, err = s.view(nq, fp)
	return err
}

// ServeHTTP implements http.Handler with request admission: a draining
// server refuses new work with 503 (health and metrics stay reachable so
// load balancers and scrapers see the drain), and every admitted request is
// tracked so Shutdown can wait for it. The increment-then-recheck order
// pairs with Shutdown's store-then-poll: either this request observes the
// drain and backs out, or Shutdown observes the in-flight count — never
// neither.
//
// The three JSON endpoints are traced end to end: a span travels down
// through the handler (which marks its stages — parse, plan, eval, write),
// the response code and latency land in the per-endpoint metric families,
// and a request over the slow threshold is logged with its full stage
// breakdown. /watch is deliberately not wrapped: the recorder would mask
// the http.Flusher the SSE stream needs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	ep := instrumentedEndpoint(r)
	if ep == "" {
		s.mux.ServeHTTP(w, r)
		return
	}
	m := s.metrics
	m.requests[ep].Inc()
	ctx, span := obs.Trace(r.Context(), ep)
	sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	sum := span.End()
	m.latency[ep].Observe(sum.Total.Seconds())
	m.response(ep, sw.code).Inc()
	if thr := s.cfg.SlowQuery; thr > 0 && sum.Total >= thr {
		m.slowRequests.Inc()
		s.logSlow(ep, sw.code, sum)
	}
}

// instrumentedEndpoint maps a request to its metric endpoint label, or ""
// for routes served without tracing.
func instrumentedEndpoint(r *http.Request) string {
	if r.Method != http.MethodPost {
		return ""
	}
	switch r.URL.Path {
	case "/query":
		return epQuery
	case "/batch":
		return epBatch
	case "/update":
		return epUpdate
	}
	return ""
}

// statusRecorder captures the response code for the metric and slow-log
// pipeline. It intentionally does not forward Flush/Hijack — only the
// non-streaming JSON endpoints are wrapped in one.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// logSlow emits the structured slow-request record: one line carrying the
// request's identity, end-to-end latency, the stage breakdown (which tiles
// the total exactly), and every attribute the handler attached — the
// request-scoped facts (fingerprint, plan shape, cache verdict) that are
// too high-cardinality for metric labels.
func (s *Server) logSlow(ep string, code int, sum obs.Summary) {
	args := []any{
		slog.Uint64("request_id", s.reqSeq.Add(1)),
		slog.String("endpoint", ep),
		slog.Int("code", code),
		slog.Float64("total_us", float64(sum.Total.Nanoseconds())/1e3),
		slog.String("stages", sum.StageString()),
	}
	for _, a := range sum.Attrs {
		args = append(args, slog.Any(a.Key, a.Value))
	}
	s.logger.Warn("slow request", args...)
}

// Registry exposes the server's metric registry — pdbd mounts it at
// /metrics on the debug listener too, and embedders can add their own
// families alongside the server's.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// LatencySnapshot returns the end-to-end latency histogram of one
// instrumented endpoint ("query", "batch", "update"); ok is false for any
// other name.
func (s *Server) LatencySnapshot(endpoint string) (obs.HistogramSnapshot, bool) {
	h, ok := s.metrics.latency[endpoint]
	if !ok {
		return obs.HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// Shutdown drains the server: new requests are refused, open watch streams
// are closed, and in-flight requests are given until timeout to finish.
// With a WAL attached, the drained log is then flushed, fsynced and sealed
// under a final clean snapshot — a planned restart replays nothing.
// Returns false when the timeout expired with requests still running (the
// WAL is closed regardless: everything committed so far is made durable).
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	deadline := time.Now().Add(timeout)
	drained := true
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			drained = false
		}
	}
	return drained
}

// --- request/response shapes ---

type queryRequest struct {
	// Query is the conjunctive query, pdbcli syntax: "R(?x) & S(?x,?y)".
	Query string `json:"query"`
	// Assignment optionally overrides fact probabilities (store fact id ->
	// probability) for this evaluation only; the live view answers it as a
	// one-lane override pass.
	Assignment map[string]float64 `json:"assignment,omitempty"`
}

type queryResponse struct {
	Probability float64 `json:"probability"`
	Seq         uint64  `json:"seq"`
	Normalized  string  `json:"normalized"`
	Cached      bool    `json:"cached"`
}

type batchRequest struct {
	Query string `json:"query"`
	// Assignments carries one probability override map per lane (store fact
	// id -> probability); omitted facts keep their live probability.
	Assignments []map[string]float64 `json:"assignments"`
	// Parallel is accepted for compatibility and ignored: every batch is
	// one multi-lane pass over the live view.
	Parallel bool `json:"parallel,omitempty"`
}

// batchBody is how handleBatch decodes a batchRequest: each lane's
// assignment decodes straight into store fact ids, with no intermediate
// string-keyed map.
type batchBody struct {
	Query       string          `json:"query"`
	Assignments []laneOverrides `json:"assignments"`
	Parallel    bool            `json:"parallel,omitempty"`
}

// laneOverrides is one decoded /batch lane: its overrides by store fact id,
// or the error that fails this lane alone (a key that is not a fact id).
type laneOverrides struct {
	ids map[int]float64
	err error
}

// UnmarshalJSON decodes a lane's assignment object into fact ids. A key
// that is not an integer fails only this lane; a body that is not an object
// of numbers fails the whole request, as any malformed body does.
func (l *laneOverrides) UnmarshalJSON(b []byte) error {
	if ids, ok := parseLane(b); ok {
		l.ids = ids
		return nil
	}
	// Anything parseLane leaves alone (an escaped or non-integer key, a
	// value that is not a number, null) decodes by string key as /query's
	// assignment does, which tells a bad key (a lane error) from a
	// malformed body.
	var raw map[string]float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	l.ids, l.err = overrides(raw)
	return nil
}

// parseLane is laneOverrides' fast path. When b is an object whose keys
// are plain decimal integers and whose values are numbers, parseLane returns
// it by fact id, parsing keys and values with the strconv calls
// encoding/json and overrides use; it reports false for anything else. The
// decoder hands it a value it has already validated, so it checks only what
// it relies on.
func parseLane(b []byte) (map[int]float64, bool) {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	i := skipSpace(b, 0)
	if at(i) != '{' {
		return nil, false
	}
	ids := make(map[int]float64, bytes.Count(b, []byte{':'}))
	if i = skipSpace(b, i+1); at(i) == '}' {
		return ids, true
	}
	for {
		if at(i) != '"' {
			return nil, false
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 || bytes.IndexByte(b[i+1:i+1+n], '\\') >= 0 {
			return nil, false // an escaped key takes the slow path
		}
		id, err := strconv.Atoi(string(b[i+1 : i+1+n]))
		if err != nil {
			return nil, false
		}
		if i = skipSpace(b, i+n+2); at(i) != ':' {
			return nil, false
		}
		i = skipSpace(b, i+1)
		j := i
		for j < len(b) && strings.IndexByte("+-.0123456789eE", b[j]) >= 0 {
			j++
		}
		p, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return nil, false
		}
		ids[id] = p
		switch i = skipSpace(b, j); at(i) {
		case '}':
			return ids, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return nil, false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

type batchResponse struct {
	Probabilities []float64 `json:"probabilities"`
	// Errors[i] is the failure of lane i, empty when the lane is healthy.
	Errors []string `json:"errors,omitempty"`
	Seq    uint64   `json:"seq"`
}

type updateOp struct {
	Op string `json:"op"` // set | insert | delete
	// ID is required for set/delete (a pointer so an omitted id is a
	// request error, not a silent update of fact 0).
	ID   *int     `json:"id,omitempty"`
	Rel  string   `json:"rel,omitempty"`
	Args []string `json:"args,omitempty"`
	P    float64  `json:"p,omitempty"`
}

type insertedFact struct {
	Fact string `json:"fact"`
	ID   int    `json:"id"`
}

type updateResponse struct {
	Seq uint64 `json:"seq"`
	// Applied counts the updates that actually committed: the full batch on
	// success, the staged prefix when the batch stopped at an invalid one.
	Applied  int            `json:"applied"`
	Inserted []insertedFact `json:"inserted,omitempty"`
	Stats    incr.Stats     `json:"stats"`
	Error    string         `json:"error,omitempty"`
}

// The /watch wire frame is pdbio.WatchEvent — the format is specified there
// so clients, the CLIs and the golden tests all read the same contract.

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// parseQuery parses and normalizes the request CQ, returning the normalized
// query and its cache fingerprint.
func parseQuery(raw string) (rel.CQ, string, error) {
	q, err := pdbio.ParseCQ(raw)
	if err != nil {
		return rel.CQ{}, "", err
	}
	nq := core.NormalizeCQ(q)
	return nq, core.FingerprintNormalized(nq), nil
}

// --- views (live path) ---

// view returns the cached live view for the fingerprint, registering it
// single-flight on a miss.
func (s *Server) view(nq rel.CQ, fp string) (*incr.View, bool, error) {
	return s.cache.get(fp, func() (*incr.View, error) {
		t0 := time.Now()
		v, err := s.store.RegisterView(nq, s.cfg.Options)
		if err != nil {
			return nil, err
		}
		s.metrics.prepareView.ObserveSince(t0)
		s.nPrepares.Add(1)
		s.viewMu.Lock()
		s.viewFP[v] = fp
		s.viewQ[v] = nq.String()
		s.viewMu.Unlock()
		return v, nil
	})
}

// overrides converts a request assignment (store fact id -> probability)
// into one override lane of incr.View.ProbabilityBatch.
func overrides(a map[string]float64) (map[int]float64, error) {
	lane := make(map[int]float64, len(a))
	for key, p := range a {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("assignment key %q is not a fact id", key)
		}
		lane[id] = p
	}
	return lane, nil
}

// evalLanes runs override lanes on v, the live view of fp. A view evicted
// from the plan cache since the caller looked it up no longer follows the
// store; it is looked up (and registered) afresh once.
func (s *Server) evalLanes(v *incr.View, nq rel.CQ, fp string, lanes []map[int]float64) ([]float64, uint64, error) {
	defer s.metrics.evalSeconds.ObserveSince(time.Now())
	probs, seq, err := v.ProbabilityBatch(lanes)
	if errors.Is(err, incr.ErrUnregistered) {
		if v, _, err = s.view(nq, fp); err == nil {
			probs, seq, err = v.ProbabilityBatch(lanes)
		}
	}
	return probs, seq, err
}

// --- handlers ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.nQueries.Add(1)
	span := obs.SpanFrom(r.Context())
	span.Stage("parse")
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	nq, fp, err := parseQuery(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	span.SetAttr("fp", fp)
	span.SetAttr("normalized", nq.String())
	path := "live"
	if len(req.Assignment) > 0 {
		path = "lanes"
	}
	span.SetAttr("path", path)
	span.Stage("plan")
	v, hit, err := s.view(nq, fp)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	span.SetAttr("cached", hit)
	var prob float64
	var seq uint64
	if len(req.Assignment) > 0 {
		span.Stage("lanes")
		lane, err := overrides(req.Assignment)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		span.Stage("eval")
		probs, lseq, err := s.evalLanes(v, nq, fp, []map[int]float64{lane})
		if le, ok := err.(core.LaneErrors); ok {
			err = le[0]
		}
		if err != nil {
			code := http.StatusUnprocessableEntity
			var nf *incr.NoFactError
			if errors.As(err, &nf) {
				code = http.StatusBadRequest
			}
			httpError(w, code, err.Error())
			return
		}
		prob, seq = probs[0], lseq
	} else {
		span.Stage("eval")
		prob, seq = v.ProbabilitySeq()
	}
	span.Stage("write")
	writeJSON(w, queryResponse{Probability: prob, Seq: seq, Normalized: nq.String(), Cached: hit})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.nBatchReqs.Add(1)
	span := obs.SpanFrom(r.Context())
	span.Stage("parse")
	var req batchBody
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Assignments) == 0 {
		httpError(w, http.StatusBadRequest, "batch carries no assignments")
		return
	}
	if len(req.Assignments) > s.cfg.MaxBatchLanes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch carries %d assignments, limit is %d; split the sweep into smaller requests", len(req.Assignments), s.cfg.MaxBatchLanes))
		return
	}
	nq, fp, err := parseQuery(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	span.SetAttr("fp", fp)
	span.SetAttr("lanes", len(req.Assignments))
	span.Stage("plan")
	v, hit, err := s.view(nq, fp)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	span.SetAttr("cached", hit)
	span.Stage("lanes")
	B := len(req.Assignments)
	s.nBatchLanes.Add(uint64(B))
	s.metrics.batchLanes.Observe(float64(B))
	laneErrs := make([]string, B)
	// A lane whose assignment does not parse fails at admission; it does
	// not take a lane of the pass.
	lanes := make([]map[int]float64, 0, B)
	valid := make([]int, 0, B)
	for i, a := range req.Assignments {
		if a.err != nil {
			laneErrs[i] = a.err.Error()
			continue
		}
		lanes = append(lanes, a.ids)
		valid = append(valid, i)
	}
	span.Stage("eval")
	evaled, seq, err := s.evalLanes(v, nq, fp, lanes)
	if le, ok := err.(core.LaneErrors); ok {
		for i, lerr := range le {
			if lerr != nil {
				laneErrs[valid[i]] = lerr.Error()
			}
		}
	} else if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	span.Stage("write")
	probs := make([]float64, B)
	for i, lane := range valid {
		probs[lane] = evaled[i]
	}
	anyErr := false
	for i := range laneErrs {
		if laneErrs[i] != "" {
			anyErr = true
			probs[i] = 0 // never ship NaN through JSON
		}
	}
	resp := batchResponse{Probabilities: probs, Seq: seq}
	if anyErr {
		resp.Errors = laneErrs
	}
	writeJSON(w, resp)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.nUpdateReqs.Add(1)
	span := obs.SpanFrom(r.Context())
	span.Stage("parse")
	var req struct {
		Updates []updateOp `json:"updates"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Updates) == 0 {
		httpError(w, http.StatusBadRequest, "no updates")
		return
	}
	us := make([]incr.Update, len(req.Updates))
	for i, op := range req.Updates {
		switch op.Op {
		case "set", "delete":
			if op.ID == nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("update %d: %s needs an \"id\"", i, op.Op))
				return
			}
			o := incr.OpSet
			if op.Op == "delete" {
				o = incr.OpDelete
			}
			us[i] = incr.Update{Op: o, ID: *op.ID, P: op.P}
		case "insert":
			if op.Rel == "" {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("update %d: insert needs a \"rel\"", i))
				return
			}
			us[i] = incr.Update{Op: incr.OpInsert, Fact: rel.NewFact(op.Rel, op.Args...), P: op.P}
		default:
			httpError(w, http.StatusBadRequest, fmt.Sprintf("update %d: unknown op %q (set|insert|delete)", i, op.Op))
			return
		}
	}
	span.SetAttr("updates", len(us))
	span.Stage("apply")
	var applied int
	var seq uint64
	var applyErr error
	if s.ingest != nil {
		res := s.ingest.submit(us)
		applied, seq, applyErr = res.applied, res.seq, res.err
	} else {
		applied, seq, applyErr = s.store.ApplyBatchN(us)
	}
	s.nUpdates.Add(uint64(applied))
	span.SetAttr("applied", applied)
	span.SetAttr("seq", seq)
	span.Stage("write")
	resp := updateResponse{Seq: seq, Applied: applied, Stats: s.store.Stats()}
	// Report inserted ids only for the prefix that actually committed — an
	// insert beyond the failing update never ran, even if its fact happens
	// to exist from an earlier batch.
	for _, u := range us[:applied] {
		if u.Op != incr.OpInsert {
			continue
		}
		if id := s.store.IDOf(u.Fact); id >= 0 {
			resp.Inserted = append(resp.Inserted, insertedFact{Fact: u.Fact.String(), ID: id})
		}
	}
	if applyErr != nil {
		// ApplyBatch commits the staged prefix before the failing update;
		// report the partial commit honestly with the error attached.
		resp.Error = applyErr.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// ?full=1 opts back into the pre-delta wire format: every frame carries
	// the complete state under the legacy "probabilities" key. The default
	// streams deltas — only the views a commit actually moved.
	fullMode := r.URL.Query().Get("full") == "1"
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// A buffered channel decouples the store's (serialized) notification
	// drain from this client's write speed; a consumer slower than the
	// buffer loses events and is told how many via the dropped counter.
	events := make(chan incr.Commit, 256)
	var dropped atomic.Uint64
	var warned atomic.Bool
	cancel := s.store.Subscribe(func(c incr.Commit) {
		select {
		case events <- c:
		default:
			dropped.Add(1)
			s.nDropped.Add(1)
			s.metrics.watchDropped.Inc()
			// One warning per subscriber, at the first drop: losing events
			// is a consumer-speed problem worth surfacing, but a slow
			// consumer must not flood the log with one line per commit.
			if warned.CompareAndSwap(false, true) {
				s.logger.Warn("watch subscriber dropping events",
					slog.String("remote", r.RemoteAddr),
					slog.Int("buffer", cap(events)),
					slog.Uint64("seq", c.Seq))
			}
		}
	})
	defer cancel()
	s.nWatchers.Add(1)
	defer s.nWatchers.Add(-1)

	send := func(ev pdbio.WatchEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// Initial snapshot so clients see the current state before the first
	// commit arrives.
	if !send(pdbio.WatchEvent{Seq: s.store.Seq(), Full: s.viewProbabilities()}) {
		return
	}
	for {
		select {
		case c := <-events:
			ev := pdbio.WatchEvent{Seq: c.Seq, Dropped: dropped.Swap(0)}
			if fullMode || ev.Dropped > 0 {
				// Full-format stream, or a resync after dropped commits: the
				// client missed deltas it can never replay, so ship the whole
				// state.
				ev.Full = map[string]float64{}
			} else {
				ev.Changed = map[string]float64{}
			}
			s.viewMu.Lock()
			for i, v := range c.Views {
				fp, ok := s.viewFP[v]
				if !ok {
					continue // evicted from the plan cache since this commit
				}
				if ev.Full != nil {
					ev.Full[fp] = c.Probabilities[i]
				} else if c.Changed[i] {
					ev.Changed[fp] = c.Probabilities[i]
				}
			}
			s.viewMu.Unlock()
			if !send(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// viewProbabilities snapshots the current probability of every cached view,
// keyed by fingerprint.
func (s *Server) viewProbabilities() map[string]float64 {
	s.viewMu.Lock()
	views := make(map[*incr.View]string, len(s.viewFP))
	for v, fp := range s.viewFP {
		views[v] = fp
	}
	s.viewMu.Unlock()
	out := make(map[string]float64, len(views))
	for v, fp := range views {
		out[fp] = v.Probability()
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	doc := map[string]any{
		"status": status,
		"seq":    s.store.Seq(),
		"facts":  s.store.NumLive(),
		"views":  s.store.NumViews(),
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		if ws.Err != "" && code == http.StatusOK {
			// A poisoned log means acknowledged commits may stop being
			// durable — fail health so the orchestrator replaces the task.
			status, code = "wal-failed", http.StatusServiceUnavailable
			doc["status"] = status
		}
		doc["durable"] = true
		doc["synced_seq"] = ws.SyncedSeq
		doc["wal_queue"] = ws.QueueDepth
		doc["snapshot_seq"] = ws.SnapshotSeq
		if ws.Err != "" {
			doc["wal_error"] = ws.Err
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(doc)
}

// EndpointLatency is the quantile summary of one endpoint's end-to-end
// latency histogram, in microseconds (extracted from the same log-bucketed
// histogram /metrics exposes, so the two surfaces always agree).
type EndpointLatency struct {
	Count uint64  `json:"count"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
}

// Statsz is the counters document served by /statsz.
type Statsz struct {
	Queries       uint64 `json:"queries"`
	BatchRequests uint64 `json:"batch_requests"`
	BatchLanes    uint64 `json:"batch_lanes"`
	UpdateReqs    uint64 `json:"update_requests"`
	Updates       uint64 `json:"updates"`
	Prepares      uint64 `json:"prepares"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheEvicts   uint64 `json:"cache_evictions"`
	CacheSize     int    `json:"cache_size"`
	// Deprecated: FrozenHits and FrozenMisses always read 0. Override
	// requests are answered by the live views; no snapshot plans are kept.
	FrozenHits    uint64 `json:"frozen_hits"`
	FrozenMisses  uint64 `json:"frozen_misses"`
	CacheCoalesce uint64 `json:"cache_coalesces"`
	Watchers      int64  `json:"watchers"`
	WatchDropped  uint64 `json:"watch_events_dropped"`
	SlowRequests  uint64 `json:"slow_requests"`
	// IngestFlushes counts the merged commits the /update batcher drove and
	// IngestCoalesced the requests that shared their commit with another;
	// both zero when batching is disabled.
	IngestFlushes   uint64 `json:"ingest_flushes"`
	IngestCoalesced uint64 `json:"ingest_coalesced"`
	// Latency carries the per-endpoint quantile summaries (query, batch,
	// update), filled from the serving histograms.
	Latency map[string]EndpointLatency `json:"latency"`
	Seq     uint64                     `json:"seq"`
	Facts   int                        `json:"facts"`
	Views   int                        `json:"views"`
	Store   incr.Stats                 `json:"store"`
	// Durability is the WAL's counters (last synced/written seq, queue
	// depth, log size, snapshot age); nil when the server runs without one.
	Durability *wal.Stats `json:"durability,omitempty"`
}

// Stats snapshots the serving counters (also served as /statsz).
func (s *Server) Stats() Statsz {
	hits, misses, evicts, size := s.cache.stats()
	var dur *wal.Stats
	if s.wal != nil {
		ws := s.wal.Stats()
		dur = &ws
	}
	lat := make(map[string]EndpointLatency, len(endpoints))
	for _, ep := range endpoints {
		sn := s.metrics.latency[ep].Snapshot()
		lat[ep] = EndpointLatency{
			Count: sn.Count,
			P50us: sn.Quantile(0.50) * 1e6,
			P95us: sn.Quantile(0.95) * 1e6,
			P99us: sn.Quantile(0.99) * 1e6,
		}
	}
	var ingFlushes, ingCoalesced uint64
	if s.ingest != nil {
		ingFlushes, ingCoalesced = s.ingest.statsSnapshot()
	}
	return Statsz{
		Queries:         s.nQueries.Load(),
		BatchRequests:   s.nBatchReqs.Load(),
		BatchLanes:      s.nBatchLanes.Load(),
		UpdateReqs:      s.nUpdateReqs.Load(),
		Updates:         s.nUpdates.Load(),
		Prepares:        s.nPrepares.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEvicts:     evicts,
		CacheSize:       size,
		CacheCoalesce:   s.metrics.cacheCoalesce.Value(),
		Watchers:        s.nWatchers.Load(),
		WatchDropped:    s.nDropped.Load(),
		SlowRequests:    s.metrics.slowRequests.Value(),
		IngestFlushes:   ingFlushes,
		IngestCoalesced: ingCoalesced,
		Latency:         lat,
		Seq:             s.store.Seq(),
		Facts:           s.store.NumLive(),
		Views:           s.store.NumViews(),
		Store:           s.store.Stats(),
		Durability:      dur,
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
