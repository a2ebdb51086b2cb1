package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/incr"
	"repro/internal/wal"
)

func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// durableServer wires a test server to a WAL over an in-memory backend and
// writes the baseline snapshot, mirroring pdbd's fresh-data-dir path.
func durableServer(t *testing.T, cfg Config) (*Server, *wal.MemBackend, *wal.WAL) {
	t.Helper()
	mem := wal.NewMemBackend()
	w, rec, err := wal.Open(wal.Options{Backend: mem, BatchSize: 8, MaxWait: 0, Sync: wal.SyncAlways})
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
	s := NewFromStore(st, cfg)
	s.AttachWAL(w)
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return s, mem, w
}

// TestPartialBatchSurvivesCrash pins the 422 contract end-to-end through a
// crash: a batch whose third update is invalid commits its 2-update prefix
// (HTTP 422, applied=2), the server dies without warning, and recovery
// reproduces exactly the partially-applied state — the prefix present, the
// rejected suffix absent, the same commit sequence.
func TestPartialBatchSurvivesCrash(t *testing.T) {
	s, mem, w := durableServer(t, Config{})
	ts := newHTTPServer(t, s)

	// A clean commit first, then the partial batch.
	var up updateResponse
	resp := postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []map[string]any{{"op": "set", "id": 0, "p": 0.55}},
	}, &up)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean update: %d", resp.StatusCode)
	}

	var partial updateResponse
	resp = postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []map[string]any{
			{"op": "set", "id": 1, "p": 0.25},
			{"op": "insert", "rel": "R", "args": []string{"zz"}, "p": 0.4},
			{"op": "set", "id": 9999, "p": 0.5}, // no such fact: stops the batch
			{"op": "set", "id": 2, "p": 0.1},    // never applied
		},
	}, &partial)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partial batch: status %d, want 422", resp.StatusCode)
	}
	if partial.Applied != 2 {
		t.Fatalf("partial batch applied %d, want 2", partial.Applied)
	}
	if partial.Error == "" {
		t.Fatal("422 response carries no error")
	}

	// Live state the 422 left behind, then crash.
	var q queryResponse
	postJSON(t, ts.URL+"/query", map[string]any{"query": "R(?x) & S(?x, ?y) & T(?y)"}, &q)
	wantSeq := s.Store().Seq()
	if q.Seq != wantSeq || partial.Seq != wantSeq {
		t.Fatalf("seqs diverge: query %d, partial %d, store %d", q.Seq, partial.Seq, wantSeq)
	}
	w.Kill()

	rec, err := wal.Replay(mem)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rec.Seq != wantSeq {
		t.Fatalf("recovered seq %d, want %d", rec.Seq, wantSeq)
	}
	st := rec.Store
	if p, _ := st.Prob(1); p != 0.25 {
		t.Errorf("prefix set lost: fact 1 at %v, want 0.25", p)
	}
	if p, _ := st.Prob(2); p != 0.7 {
		t.Errorf("rejected suffix applied: fact 2 at %v, want its original 0.7", p)
	}
	if id := st.Len(); id != 4 {
		t.Errorf("recovered %d slots, want 4 (3 seeded + 1 inserted)", id)
	}

	// The recovered server answers the same query with the same number.
	s2 := NewFromStore(st, Config{})
	ts2 := newHTTPServer(t, s2)
	var q2 queryResponse
	postJSON(t, ts2.URL+"/query", map[string]any{"query": "R(?x) & S(?x, ?y) & T(?y)"}, &q2)
	if d := math.Abs(q2.Probability - q.Probability); d > 1e-12 {
		t.Fatalf("recovered answer %v, pre-crash %v (|Δ|=%.3g)", q2.Probability, q.Probability, d)
	}
}

// TestDurabilityInStatsAndHealth checks /healthz and /statsz expose the
// durability state, and that Shutdown seals the log so a restart replays
// nothing.
func TestDurabilityInStatsAndHealth(t *testing.T) {
	s, mem, _ := durableServer(t, Config{})
	ts := newHTTPServer(t, s)

	var up updateResponse
	postJSON(t, ts.URL+"/update", map[string]any{
		"updates": []map[string]any{{"op": "set", "id": 0, "p": 0.5}},
	}, &up)

	var health map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if health["durable"] != true {
		t.Errorf("healthz durable=%v", health["durable"])
	}
	if got := health["synced_seq"]; got != float64(up.Seq) {
		t.Errorf("healthz synced_seq=%v, want %v (an acked commit is synced under fsync=always)", got, up.Seq)
	}
	st := s.Stats()
	if st.Durability == nil {
		t.Fatal("statsz carries no durability block")
	}
	if st.Durability.SyncedSeq != up.Seq || st.Durability.Policy != "always" {
		t.Errorf("durability stats %+v", st.Durability)
	}
	if st.Durability.Appends == 0 || st.Durability.LogBytes == 0 {
		t.Errorf("durability counters empty: %+v", st.Durability)
	}

	if !s.Shutdown(time.Second) {
		t.Fatal("shutdown did not complete cleanly")
	}
	rec, err := wal.Replay(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Errorf("planned restart would replay %d records, want 0", rec.Records)
	}
	if rec.Seq != up.Seq {
		t.Errorf("sealed at seq %d, want %d", rec.Seq, up.Seq)
	}
}

// TestRecoverBatchFromWarmViews: after a crash, WAL replay and the warm
// restart's Preregister of the snapshot's views, /batch answers as the
// pre-crash server did at the same commit sequence — from the re-registered
// live view, with no Prepare of its own.
func TestRecoverBatchFromWarmViews(t *testing.T) {
	s, mem, w := durableServer(t, Config{})
	ts := newHTTPServer(t, s)
	const query = "R(?x) & S(?x,?y) & T(?y)"
	postJSON(t, ts.URL+"/query", map[string]any{"query": query}, nil)
	if err := w.Snapshot(); err != nil { // records the registered view
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/update", map[string]any{"updates": []map[string]any{
		{"op": "set", "id": 0, "p": 0.35},
		{"op": "insert", "rel": "S", "args": []string{"a", "c"}, "p": 0.6},
		{"op": "insert", "rel": "T", "args": []string{"c"}, "p": 0.45},
	}}, nil)
	postJSON(t, ts.URL+"/update", map[string]any{"updates": []map[string]any{
		{"op": "delete", "id": 2},
	}}, nil)
	batch := batchRequest{Query: query, Assignments: []map[string]float64{
		{},
		{"1": 1},
		{"3": 0, "4": 1},
		{"2": 0.5}, // deleted before the crash: fails its lane on both sides
	}}
	var before batchResponse
	postJSON(t, ts.URL+"/batch", batch, &before)
	w.Kill()

	rec, err := wal.Replay(mem)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rec.Seq != before.Seq {
		t.Fatalf("recovered seq %d, pre-crash batch at %d", rec.Seq, before.Seq)
	}
	s2 := NewFromStore(rec.Store, Config{})
	if len(rec.Views) != 1 {
		t.Fatalf("snapshot recorded views %v, want the one registered", rec.Views)
	}
	for _, q := range rec.Views {
		if err := s2.Preregister(q); err != nil {
			t.Fatal(err)
		}
	}
	ts2 := newHTTPServer(t, s2)
	prepares := s2.Stats().Prepares
	var after batchResponse
	postJSON(t, ts2.URL+"/batch", batch, &after)
	if after.Seq != before.Seq {
		t.Fatalf("recovered batch at seq %d, pre-crash %d", after.Seq, before.Seq)
	}
	if got := s2.Stats().Prepares; got != prepares {
		t.Errorf("/batch on the warm view prepared: %d -> %d", prepares, got)
	}
	if len(after.Errors) != len(before.Errors) {
		t.Fatalf("lane errors %q, pre-crash %q", after.Errors, before.Errors)
	}
	for l := range batch.Assignments {
		if d := math.Abs(after.Probabilities[l] - before.Probabilities[l]); d > 1e-12 {
			t.Errorf("lane %d: recovered %v, pre-crash %v", l, after.Probabilities[l], before.Probabilities[l])
		}
		if before.Errors != nil && after.Errors[l] != before.Errors[l] {
			t.Errorf("lane %d error: recovered %q, pre-crash %q", l, after.Errors[l], before.Errors[l])
		}
	}
	if before.Errors == nil || before.Errors[3] == "" {
		t.Errorf("override of a deleted fact did not fail its lane: %+v", before)
	}
}
