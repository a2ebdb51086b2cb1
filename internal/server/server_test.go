package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incr"
	"repro/internal/pdb"
	"repro/internal/pdbio"
	"repro/internal/rel"
)

// rstTID builds the 3-fact R(a) S(a,b) T(b) instance with the given
// probabilities.
func rstTID(pr, ps, pt float64) *pdb.TID {
	t := pdb.NewTID()
	t.AddFact(pr, "R", "a")
	t.AddFact(ps, "S", "a", "b")
	t.AddFact(pt, "T", "b")
	return t
}

func newTestServer(t *testing.T, tid *pdb.TID, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(tid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, into any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	var qr queryResponse
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x) & S(?x,?y) & T(?y)"}, &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if math.Abs(qr.Probability-0.9*0.5*0.8) > 1e-12 {
		t.Fatalf("P(q) = %v, want %v", qr.Probability, 0.36)
	}
	if qr.Cached {
		t.Error("first request reported as cached")
	}
	// The same shape under different variable names and atom order is a
	// cache hit answered by the same view.
	var qr2 queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "T(?b) & S(?a,?b) & R(?a)"}, &qr2)
	if !qr2.Cached {
		t.Error("isomorphic query missed the plan cache")
	}
	if qr2.Probability != qr.Probability {
		t.Errorf("cache hit answered %v, first answer %v", qr2.Probability, qr.Probability)
	}
	// Malformed queries are a 400, not a prepare.
	if resp := postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status %d", resp.StatusCode)
	}
}

// TestQueryAssignmentOverride: an assignment query is answered by the
// shape's live view — cached once the view is registered, with no further
// Prepare — and leaves the store untouched.
func TestQueryAssignmentOverride(t *testing.T) {
	s, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	var qr queryResponse
	resp := postJSON(t, ts.URL+"/query", queryRequest{
		Query:      "R(?x) & S(?x,?y) & T(?y)",
		Assignment: map[string]float64{"1": 1.0}, // S certain for this request only
	}, &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if math.Abs(qr.Probability-0.9*1.0*0.8) > 1e-12 {
		t.Fatalf("override P(q) = %v, want %v", qr.Probability, 0.72)
	}
	if qr.Cached {
		t.Error("first request of the shape reported as cached (its view was just registered)")
	}
	prepares := s.Stats().Prepares
	var qrHit queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{
		Query:      "T(?b) & S(?a,?b) & R(?a)",
		Assignment: map[string]float64{"1": 0.25},
	}, &qrHit)
	if !qrHit.Cached {
		t.Error("assignment query on a registered view not reported as cached")
	}
	if math.Abs(qrHit.Probability-0.9*0.25*0.8) > 1e-12 {
		t.Fatalf("live view override answered %v", qrHit.Probability)
	}
	if got := s.Stats().Prepares; got != prepares {
		t.Errorf("assignment query on a registered view prepared: %d -> %d", prepares, got)
	}
	// The live store is untouched by per-request overrides.
	var qr2 queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x) & S(?x,?y) & T(?y)"}, &qr2)
	if math.Abs(qr2.Probability-0.36) > 1e-12 {
		t.Fatalf("live P(q) drifted to %v", qr2.Probability)
	}
	// Unknown fact ids are a client error.
	if resp := postJSON(t, ts.URL+"/query", queryRequest{
		Query:      "R(?x) & S(?x,?y) & T(?y)",
		Assignment: map[string]float64{"99": 0.5},
	}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown id status %d", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		_, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
		var br batchResponse
		resp := postJSON(t, ts.URL+"/batch", batchRequest{
			Query: "R(?x) & S(?x,?y) & T(?y)",
			Assignments: []map[string]float64{
				{},
				{"1": 0.1},
				{"0": 1, "1": 1, "2": 1},
			},
			Parallel: parallel,
		}, &br)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallel=%v: status %d", parallel, resp.StatusCode)
		}
		want := []float64{0.36, 0.9 * 0.1 * 0.8, 1}
		for i, w := range want {
			if math.Abs(br.Probabilities[i]-w) > 1e-12 {
				t.Errorf("parallel=%v lane %d = %v, want %v", parallel, i, br.Probabilities[i], w)
			}
		}
		if br.Errors != nil {
			t.Errorf("parallel=%v: unexpected lane errors %v", parallel, br.Errors)
		}
	}
}

func TestBatchLaneErrors(t *testing.T) {
	_, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	var br batchResponse
	resp := postJSON(t, ts.URL+"/batch", batchRequest{
		Query: "R(?x) & S(?x,?y) & T(?y)",
		Assignments: []map[string]float64{
			{"1": 0.2},
			{"1": 1.5},    // invalid probability: fails its lane only
			{"nope": 0.5}, // unparsable id: fails its lane only
			{"99": 0.5},   // unknown id: fails its lane only
			{"0": 0.5},    // healthy
		},
	}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if br.Errors == nil {
		t.Fatal("lane errors missing")
	}
	for _, bad := range []int{1, 2, 3} {
		if br.Errors[bad] == "" {
			t.Errorf("lane %d error missing", bad)
		}
		if br.Probabilities[bad] != 0 || math.IsNaN(br.Probabilities[bad]) {
			t.Errorf("failed lane %d value %v, want NaN-free 0", bad, br.Probabilities[bad])
		}
	}
	for _, good := range []int{0, 4} {
		if br.Errors[good] != "" {
			t.Errorf("healthy lane %d failed: %s", good, br.Errors[good])
		}
	}
	if math.Abs(br.Probabilities[0]-0.9*0.2*0.8) > 1e-12 {
		t.Errorf("lane 0 = %v", br.Probabilities[0])
	}
	if math.Abs(br.Probabilities[4]-0.5*0.5*0.8) > 1e-12 {
		t.Errorf("lane 4 = %v", br.Probabilities[4])
	}
}

func TestBatchLaneCap(t *testing.T) {
	_, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{MaxBatchLanes: 4})
	over := make([]map[string]float64, 5)
	for i := range over {
		over[i] = map[string]float64{"0": 0.5}
	}
	if resp := postJSON(t, ts.URL+"/batch", batchRequest{
		Query:       "R(?x) & S(?x,?y) & T(?y)",
		Assignments: over,
	}, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap batch status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	// Exactly at the cap is served.
	var br batchResponse
	if resp := postJSON(t, ts.URL+"/batch", batchRequest{
		Query:       "R(?x) & S(?x,?y) & T(?y)",
		Assignments: over[:4],
	}, &br); resp.StatusCode != http.StatusOK {
		t.Fatalf("at-cap batch status %d", resp.StatusCode)
	}
	for i, p := range br.Probabilities {
		if math.Abs(p-0.5*0.5*0.8) > 1e-12 {
			t.Errorf("lane %d = %v", i, p)
		}
	}
}

func TestUpdateEndpoint(t *testing.T) {
	s, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	var ur updateResponse
	resp := postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []updateOp{
			{Op: "set", ID: ip(1), P: 0.9},
			{Op: "insert", Rel: "T", Args: []string{"c"}, P: 0.4},
			{Op: "insert", Rel: "S", Args: []string{"a", "c"}, P: 0.7},
		},
	}, &ur)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ur.Seq != 1 || ur.Applied != 3 {
		t.Fatalf("seq %d applied %d", ur.Seq, ur.Applied)
	}
	if len(ur.Inserted) != 2 || ur.Inserted[0].Fact != "T(c)" || ur.Inserted[1].Fact != "S(a,c)" {
		t.Fatalf("inserted %v", ur.Inserted)
	}
	if ur.Stats.Commits != 1 || ur.Stats.Updates != 3 || ur.Stats.Shards == 0 {
		t.Fatalf("stats %+v", ur.Stats)
	}
	// The live view reflects the commit.
	var qr queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x) & S(?x,?y) & T(?y)"}, &qr)
	want, err := s.Store().Oracle(rel.HardQuery())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qr.Probability-want) > 1e-12 {
		t.Fatalf("post-update P(q) = %v, oracle %v", qr.Probability, want)
	}

	// A batch failing mid-way commits its prefix and reports the error.
	var ur2 updateResponse
	resp = postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []updateOp{
			{Op: "set", ID: ip(0), P: 0.5},
			{Op: "set", ID: ip(999), P: 0.5},
		},
	}, &ur2)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partial-batch status %d", resp.StatusCode)
	}
	if ur2.Error == "" || ur2.Seq != 2 {
		t.Fatalf("partial batch: %+v", ur2)
	}
	if ur2.Applied != 1 {
		t.Fatalf("partial batch applied = %d, want 1 (only the staged prefix landed)", ur2.Applied)
	}
	// An insert AFTER the failing update never ran: it must not be reported
	// as inserted even though its fact already exists from an earlier batch.
	var ur3 updateResponse
	resp = postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []updateOp{
			{Op: "set", ID: ip(999), P: 0.5},
			{Op: "insert", Rel: "T", Args: []string{"c"}, P: 0.4},
		},
	}, &ur3)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ur3.Applied != 0 || len(ur3.Inserted) != 0 {
		t.Fatalf("nothing applied, yet applied=%d inserted=%v", ur3.Applied, ur3.Inserted)
	}
	if p, _ := s.Store().Prob(0); p != 0.5 {
		t.Fatalf("prefix not committed: P(fact 0) = %v", p)
	}
	// Unknown ops and empty batches are 400s.
	if resp := postJSON(t, ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "zap", ID: ip(1)}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op status %d", resp.StatusCode)
	}
	// Malformed ops are rejected before anything stages: an insert with no
	// relation (field typo) and a set with no id (would silently hit fact 0).
	if resp := postJSON(t, ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "insert", P: 0.5}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("relation-less insert status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "set", P: 0.5}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("id-less set status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/update", map[string]any{"updates": []updateOp{}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d", resp.StatusCode)
	}
}

// sseReader reads watch events off an open /watch stream.
type sseReader struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openWatch(t *testing.T, url string) *sseReader {
	t.Helper()
	return openWatchQuery(t, url, "")
}

// openWatchQuery opens /watch with an explicit query string ("?full=1" opts
// out of delta frames).
func openWatchQuery(t *testing.T, url, query string) *sseReader {
	t.Helper()
	resp, err := http.Get(url + "/watch" + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &sseReader{resp: resp, sc: bufio.NewScanner(resp.Body)}
}

func (r *sseReader) next(t *testing.T) pdbio.WatchEvent {
	t.Helper()
	for r.sc.Scan() {
		line := strings.TrimSpace(r.sc.Text())
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev pdbio.WatchEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		return ev
	}
	t.Fatalf("watch stream ended: %v", r.sc.Err())
	return pdbio.WatchEvent{}
}

// TestEndToEndServing is the acceptance scenario: two concurrent clients ask
// the same normalized CQ under different spellings (one Prepare total, the
// cache hit visible in /statsz), then a third client commits updates while a
// /watch stream receives commit-ordered refreshed probabilities that match a
// from-scratch incr.Oracle recomputation to 1e-12.
func TestEndToEndServing(t *testing.T) {
	s, ts := newTestServer(t, gen.RSTChain(6, 0.5), Config{})
	q := rel.HardQuery()
	fp := core.FingerprintCQ(q)

	// Phase 1: two concurrent clients, textually different identical CQs.
	spellings := []string{
		"R(?x) & S(?x,?y) & T(?y)",
		"T(?b) & S(?a,?b) & R(?a)",
	}
	var wg sync.WaitGroup
	answers := make([]float64, len(spellings))
	for i, spelled := range spellings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qr queryResponse
			postJSON(t, ts.URL+"/query", queryRequest{Query: spelled}, &qr)
			answers[i] = qr.Probability
		}()
	}
	wg.Wait()
	if answers[0] != answers[1] {
		t.Fatalf("concurrent clients disagree: %v vs %v", answers[0], answers[1])
	}
	var stats Statsz
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.Prepares != 1 {
		t.Fatalf("prepares = %d, want exactly 1 (single-flight normalized cache)", stats.Prepares)
	}
	if stats.CacheHits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", stats.CacheHits)
	}
	if stats.Queries != 2 {
		t.Fatalf("queries = %d", stats.Queries)
	}

	// Phase 2: a watch stream against a stream of update commits. The test
	// is the only writer, so after each commit's event arrives the store is
	// quiescent and the Oracle can recompute ground truth.
	watch := openWatch(t, ts.URL)
	hello := watch.next(t)
	if hello.Seq != s.Store().Seq() {
		t.Fatalf("hello event seq %d, store %d", hello.Seq, s.Store().Seq())
	}

	lastSeq := hello.Seq
	updates := [][]updateOp{
		{{Op: "set", ID: ip(0), P: 0.95}},
		{{Op: "set", ID: ip(4), P: 0.05}, {Op: "insert", Rel: "S", Args: []string{"v0", "v9"}, P: 0.6}},
		{{Op: "insert", Rel: "R", Args: []string{"z0"}, P: 0.5}, {Op: "insert", Rel: "S", Args: []string{"z0", "z1"}, P: 0.5}, {Op: "insert", Rel: "T", Args: []string{"z1"}, P: 0.5}},
		{{Op: "delete", ID: ip(2)}},
		{{Op: "set", ID: ip(1), P: 0.33}},
	}
	for _, batch := range updates {
		var ur updateResponse
		resp := postJSON(t, ts.URL+"/update", map[string]any{"updates": batch}, &ur)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update status %d (%+v)", resp.StatusCode, ur)
		}
		ev := watch.next(t)
		if ev.Seq != lastSeq+1 {
			t.Fatalf("watch seq %d, want %d (commit order)", ev.Seq, lastSeq+1)
		}
		lastSeq = ev.Seq
		// Every commit in this sequence genuinely moves the watched view, so
		// the delta frame must carry its fingerprint.
		got, ok := ev.Changed[fp]
		if !ok {
			t.Fatalf("event %d misses the view fingerprint %q: %v", ev.Seq, fp, ev.Changed)
		}
		want, err := s.Store().Oracle(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("commit %d: watched %v, oracle %v (|Δ|=%.3g)", ev.Seq, got, want, math.Abs(got-want))
		}
	}
}

// TestWatchCancelOnDisconnect: closing the client connection cancels the
// subscription; later commits must not leak to it (watchers gauge drops).
func TestWatchCancelOnDisconnect(t *testing.T) {
	s, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	watch := openWatch(t, ts.URL)
	_ = watch.next(t) // hello
	watch.resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Watchers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher gauge never dropped after disconnect")
		}
		// Commits push events into the (now dead) stream, driving the
		// handler to notice the closed connection.
		postJSON(t, ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "set", ID: ip(0), P: 0.5}}}, nil)
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheEviction: a cache smaller than the query-shape working set evicts
// cold views and unregisters them from the store.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{CacheSize: 2})
	shapes := []string{
		"R(?x)",
		"S(?x,?y)",
		"T(?y)",
		"R(?x) & S(?x,?y)",
	}
	for _, q := range shapes {
		if resp := postJSON(t, ts.URL+"/query", queryRequest{Query: q}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q status %d", q, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.CacheSize > 2 || st.Views > 2 {
		t.Fatalf("cache %d entries, %d store views; want <= 2", st.CacheSize, st.Views)
	}
	if st.CacheEvicts < 2 {
		t.Fatalf("evictions = %d, want >= 2", st.CacheEvicts)
	}
	// Evicted shapes still answer (re-registered on demand).
	var qr queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x)"}, &qr)
	if math.Abs(qr.Probability-0.9) > 1e-12 {
		t.Fatalf("re-registered view answered %v", qr.Probability)
	}
}

// TestDrain: a draining server 503s new work, reports draining health, and
// Shutdown completes with open watch streams.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	watch := openWatch(t, ts.URL)
	_ = watch.next(t)
	if !s.Shutdown(5 * time.Second) {
		t.Fatal("shutdown timed out")
	}
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x)"}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining query status %d", resp.StatusCode)
	}
}

// TestServerConcurrentMixed hammers queries, batches, updates and watch
// streams concurrently; run under -race in CI. Every query answer must match
// either the store state before or after the concurrent updates — here we
// only require the server never errors and stays internally consistent,
// checked by a final oracle comparison once writers are done.
func TestServerConcurrentMixed(t *testing.T) {
	s, ts := newTestServer(t, gen.RSTChain(5, 0.5), Config{CacheSize: 4})
	queries := []string{
		"R(?x) & S(?x,?y) & T(?y)",
		"S(?a,?b) & T(?b)",
		"R(?q)",
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				var qr queryResponse
				resp := postJSON(t, ts.URL+"/query", queryRequest{Query: queries[(w+i)%len(queries)]}, &qr)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			var ur updateResponse
			resp := postJSON(t, ts.URL+"/update", map[string]any{
				"updates": []updateOp{{Op: "set", ID: ip(i % 9), P: float64(i%10+1) / 11}},
			}, &ur)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		watch := openWatch(t, ts.URL)
		last := uint64(0)
		for i := 0; i < 5; i++ {
			ev := watch.next(t)
			if ev.Seq < last {
				t.Errorf("watch went backwards: %d after %d", ev.Seq, last)
			}
			last = ev.Seq
		}
	}()
	wg.Wait()
	for _, raw := range queries {
		q, err := pdbio.ParseCQ(raw)
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		postJSON(t, ts.URL+"/query", queryRequest{Query: raw}, &qr)
		want, err := s.Store().Oracle(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qr.Probability-want) > 1e-12 {
			t.Fatalf("quiescent %q = %v, oracle %v", raw, qr.Probability, want)
		}
	}
}

// TestBatchAfterCommitUsesLiveView: a /batch after an update answers from
// the live view at the new commit — no Prepare runs for it.
func TestBatchAfterCommitUsesLiveView(t *testing.T) {
	s, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	var br batchResponse
	postJSON(t, ts.URL+"/batch", batchRequest{
		Query:       "R(?x) & S(?x,?y) & T(?y)",
		Assignments: []map[string]float64{{}},
	}, &br)
	if math.Abs(br.Probabilities[0]-0.36) > 1e-12 {
		t.Fatalf("pre-update batch = %v", br.Probabilities[0])
	}
	prepares := s.Stats().Prepares
	postJSON(t, ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "set", ID: ip(0), P: 1}}}, nil)
	var br2 batchResponse
	postJSON(t, ts.URL+"/batch", batchRequest{
		Query:       "R(?x) & S(?x,?y) & T(?y)",
		Assignments: []map[string]float64{{}},
	}, &br2)
	if math.Abs(br2.Probabilities[0]-0.4) > 1e-12 {
		t.Fatalf("post-update batch = %v, want 0.4", br2.Probabilities[0])
	}
	if br2.Seq != s.Store().Seq() || br2.Seq == br.Seq {
		t.Fatalf("batch seq %d (before the update %d), store %d", br2.Seq, br.Seq, s.Store().Seq())
	}
	if got := s.Stats().Prepares; got != prepares {
		t.Errorf("/batch after a commit prepared: %d -> %d", prepares, got)
	}
}

func ExampleServer() {
	tid := pdb.NewTID()
	tid.AddFact(0.9, "R", "a")
	tid.AddFact(0.5, "S", "a", "b")
	tid.AddFact(0.8, "T", "b")
	s, err := New(tid, Config{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	body, _ := json.Marshal(queryRequest{Query: "R(?x) & S(?x,?y) & T(?y)"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	json.NewDecoder(resp.Body).Decode(&qr)
	fmt.Printf("P(q) = %.3f\n", qr.Probability)
	// Output: P(q) = 0.360
}

// ip builds the pointer-typed fact id updateOp wants (an omitted id must be
// a request error, so the field is *int).
func ip(i int) *int { return &i }

// TestIngestBatcherConcurrentWriters: concurrent /update writers behind the
// ingest batcher coalesce into far fewer store commits than requests, while
// every request still gets its own correct ack — each writer's final weight
// lands, sequence numbers never go backwards per writer, and the coalescing
// counters surface in /statsz. A malformed request routed through the same
// batcher keeps its per-caller 422 semantics.
func TestIngestBatcherConcurrentWriters(t *testing.T) {
	s, ts := newTestServer(t, gen.RSTChain(12, 0.5), Config{
		CacheSize:     4,
		IngestBatch:   64,
		IngestMaxWait: 2 * time.Millisecond,
	})
	const writers = 8
	const perWriter = 20
	finals := make([]float64, writers) // each slot written by one goroutine only
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastSeq := uint64(0)
			for i := 0; i < perWriter; i++ {
				p := float64((w+i)%10+1) / 11
				finals[w] = p
				var ur updateResponse
				resp := postJSON(t, ts.URL+"/update", map[string]any{
					"updates": []updateOp{{Op: "set", ID: ip(w), P: p}},
				}, &ur)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: status %d", w, resp.StatusCode)
					return
				}
				if ur.Applied != 1 {
					t.Errorf("writer %d: applied %d, want 1", w, ur.Applied)
					return
				}
				if ur.Seq < lastSeq {
					t.Errorf("writer %d: ack seq went backwards: %d after %d", w, ur.Seq, lastSeq)
					return
				}
				lastSeq = ur.Seq
			}
		}(w)
	}
	wg.Wait()

	// Each writer touched its own fact, so its last acked write must be the
	// store's weight — coalescing must not reorder a single caller's updates.
	for w := 0; w < writers; w++ {
		got, err := s.Store().Prob(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != finals[w] {
			t.Errorf("fact %d = %v, want writer %d's final write %v", w, got, w, finals[w])
		}
	}
	total := uint64(writers * perWriter)
	if commits := s.Store().Stats().Commits; commits*2 > total {
		t.Errorf("coalescing too weak: %d commits for %d requests", commits, total)
	}
	var stats Statsz
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.IngestFlushes == 0 || stats.IngestFlushes != s.Store().Stats().Commits {
		t.Errorf("statsz ingest_flushes = %d, store commits = %d", stats.IngestFlushes, s.Store().Stats().Commits)
	}
	if stats.IngestCoalesced == 0 {
		t.Error("statsz ingest_coalesced = 0 under concurrent writers")
	}

	// Per-caller failure semantics survive the batcher: the staged prefix of
	// THIS request landed, the bad op is the caller's own 422.
	var ur updateResponse
	resp := postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []updateOp{
			{Op: "set", ID: ip(0), P: 0.5},
			{Op: "set", ID: ip(9999), P: 0.5},
		},
	}, &ur)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad batch through the batcher: status %d", resp.StatusCode)
	}
	if ur.Applied != 1 || ur.Error == "" {
		t.Fatalf("bad batch through the batcher: %+v", ur)
	}
	if p, err := s.Store().Prob(0); err != nil || p != 0.5 {
		t.Fatalf("staged prefix did not land: fact 0 = %v, %v", p, err)
	}
}

// TestWatchFullOptIn: ?full=1 keeps the pre-delta wire format — every frame
// carries the complete state under "probabilities", never a "changed" map —
// while the default stream sends deltas for the same commits.
func TestWatchFullOptIn(t *testing.T) {
	_, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	var qr queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x) & S(?x,?y) & T(?y)"}, &qr)

	full := openWatchQuery(t, ts.URL, "?full=1")
	delta := openWatch(t, ts.URL)
	if ev := full.next(t); len(ev.Full) != 1 || ev.Changed != nil {
		t.Fatalf("full-mode initial frame: %+v", ev)
	}
	if ev := delta.next(t); len(ev.Full) != 1 || ev.Changed != nil {
		t.Fatalf("delta-mode initial frame must still be a full snapshot: %+v", ev)
	}

	var ur updateResponse
	postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []updateOp{{Op: "set", ID: ip(1), P: 0.9}},
	}, &ur)

	fe := full.next(t)
	if len(fe.Full) != 1 || fe.Changed != nil {
		t.Fatalf("full-mode commit frame: %+v", fe)
	}
	de := delta.next(t)
	if len(de.Changed) != 1 || de.Full != nil {
		t.Fatalf("delta-mode commit frame: %+v", de)
	}
	for fp, p := range de.Changed {
		if fe.Full[fp] != p {
			t.Fatalf("delta %v disagrees with full frame %v", de.Changed, fe.Full)
		}
	}
}

// postErr is postJSON for helper goroutines: it reports failures as an
// error instead of failing the test from a goroutine that is not the
// test's own.
func postErr(url string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// TestConcurrentLanesMatchLibrary runs /batch, /update and /query
// concurrently (CI runs the package under -race) and checks every answer
// against the library: each /batch lane and each /query equals a fresh
// Prepare on the store's facts as of the commit sequence its response
// carries. Every /update commits alone, so replaying the acknowledged
// updates in sequence order rebuilds the state at any sequence.
func TestConcurrentLanesMatchLibrary(t *testing.T) {
	tid := gen.RSTChain(4, 0.5)
	_, ts := newTestServer(t, tid, Config{})
	const query = "R(?x) & S(?x,?y) & T(?y)"
	type set struct {
		id int
		p  float64
	}
	type batchAns struct {
		lanes []map[string]float64
		resp  batchResponse
	}
	var (
		mu      sync.Mutex
		sets    = map[uint64]set{}
		batches []batchAns
		queries []queryResponse
		wg      sync.WaitGroup
	)
	n := tid.NumFacts()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				u := set{id: (3*i + w) % n, p: float64((i+w)%9+1) / 10}
				var ur updateResponse
				if err := postErr(ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "set", ID: ip(u.id), P: u.p}}}, &ur); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				sets[ur.Seq] = u
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				lanes := []map[string]float64{
					{},
					{fmt.Sprint((i + r) % n): 0},
					{fmt.Sprint(i % n): 1, fmt.Sprint((i + 5) % n): 0.3},
				}
				var br batchResponse
				if err := postErr(ts.URL+"/batch", batchRequest{Query: query, Assignments: lanes}, &br); err != nil {
					t.Error(err)
					return
				}
				var qr queryResponse
				if err := postErr(ts.URL+"/query", queryRequest{Query: query}, &qr); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				batches = append(batches, batchAns{lanes: lanes, resp: br})
				queries = append(queries, qr)
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	q, err := pdbio.ParseCQ(query)
	if err != nil {
		t.Fatal(err)
	}
	// answer evaluates q at commit seq under one lane's overrides.
	answer := func(seq uint64, lane map[string]float64) float64 {
		t.Helper()
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = tid.Prob(i)
		}
		for k := uint64(1); k <= seq; k++ {
			u, ok := sets[k]
			if !ok {
				t.Fatalf("no acknowledged update carries seq %d", k)
			}
			probs[u.id] = u.p
		}
		for key, p := range lane {
			var id int
			fmt.Sscan(key, &id)
			probs[id] = p
		}
		at := pdb.NewTID()
		for i := 0; i < n; i++ {
			at.Add(tid.Fact(i), probs[i])
		}
		res, err := core.ProbabilityTID(at, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Probability
	}
	for _, b := range batches {
		if b.resp.Errors != nil {
			t.Fatalf("seq %d: lane errors %v", b.resp.Seq, b.resp.Errors)
		}
		for l, lane := range b.lanes {
			if want := answer(b.resp.Seq, lane); math.Abs(b.resp.Probabilities[l]-want) > 1e-12 {
				t.Fatalf("/batch at seq %d lane %d (%v) = %v, library %v", b.resp.Seq, l, lane, b.resp.Probabilities[l], want)
			}
		}
	}
	for _, qr := range queries {
		if want := answer(qr.Seq, nil); math.Abs(qr.Probability-want) > 1e-12 {
			t.Fatalf("/query at seq %d = %v, library %v", qr.Seq, qr.Probability, want)
		}
	}
}

// TestWideQueryRejectedPromptly: a CQ with more atoms than the automaton's
// witness mask holds is a 4xx on /query and /batch — twice for the same
// fingerprint, each within a second, since a failed registration must not
// leave the plan-cache entry wedged — and the server keeps answering.
func TestWideQueryRejectedPromptly(t *testing.T) {
	_, ts := newTestServer(t, rstTID(0.9, 0.5, 0.8), Config{})
	atoms := make([]string, 31)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("S(?x%d,?x%d)", i, i+1)
	}
	wide := strings.Join(atoms, " & ")
	client := &http.Client{Timeout: time.Second}
	post := func(path string, body any) int {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := post("/query", queryRequest{Query: wide}); code < 400 || code >= 500 {
			t.Fatalf("wide /query #%d: status %d, want 4xx", i, code)
		}
		if code := post("/batch", batchRequest{Query: wide, Assignments: []map[string]float64{{"0": 0.5}}}); code < 400 || code >= 500 {
			t.Fatalf("wide /batch #%d: status %d, want 4xx", i, code)
		}
	}
	var qr queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "R(?x) & S(?x,?y) & T(?y)"}, &qr)
	if math.Abs(qr.Probability-0.9*0.5*0.8) > 1e-12 {
		t.Fatalf("P(q) = %v after the wide query, want %v", qr.Probability, 0.36)
	}
}

// TestPlanCacheBuildPanicSettlesEntry: when a registration panics, the
// requests coalesced onto it get an error instead of blocking forever, and
// the entry is dropped so the next request builds afresh.
func TestPlanCacheBuildPanicSettlesEntry(t *testing.T) {
	pc := newPlanCache(4, func(*incr.View) {})
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		pc.get("fp", func() (*incr.View, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := pc.get("fp", func() (*incr.View, error) { return nil, fmt.Errorf("not coalesced") })
		waiter <- err
	}()
	for {
		pc.mu.Lock()
		hits := pc.hits
		pc.mu.Unlock()
		if hits == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-waiter:
		if !errors.Is(err, errBuildPanicked) {
			t.Fatalf("coalesced request got %v, want errBuildPanicked", err)
		}
	case <-time.After(time.Second):
		t.Fatal("coalesced request still blocked after the build panicked")
	}
	rebuilt := false
	if _, hit, _ := pc.get("fp", func() (*incr.View, error) { rebuilt = true; return nil, fmt.Errorf("again") }); hit || !rebuilt {
		t.Fatalf("after the panic: hit=%v rebuilt=%v, want a fresh build", hit, rebuilt)
	}
}
