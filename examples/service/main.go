// Example service: the full pdbd scenario in one process — a query service
// over a live probabilistic database, exercised by three "clients":
//
//  1. two query clients asking the same conjunctive query under different
//     spellings (one Prepare, the second answer is a plan-cache hit),
//  2. a watch client streaming every commit's refreshed probability,
//  3. an update client committing probability changes and inserts,
//
// then the observability surfaces over the same traffic: a Prometheus
// scrape of /metrics and a slow-query log record with its per-stage span
// breakdown (the threshold is set to 1ns here so every request qualifies).
//
// Run with: go run ./examples/service
//
// On amd64, building with GOAMD64=v3 lets the compiler emit FMA/AVX forms
// of the lane kernels behind /batch sweeps (internal/core/kernel):
//
//	GOAMD64=v3 go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/pdb"
	"repro/internal/server"
)

func main() {
	// The running example: R(a) S(a,b) T(b), tuple-independent.
	tid := pdb.NewTID()
	tid.AddFact(0.9, "R", "a")
	tid.AddFact(0.5, "S", "a", "b")
	tid.AddFact(0.8, "T", "b")

	// The slow-query log goes to a buffer here so the walkthrough can show
	// one record at the end; pdbd writes the same records to stderr
	// (-log-format text|json, -slow-query DUR).
	var slowLog bytes.Buffer
	s, err := server.New(tid, server.Config{
		SlowQuery: time.Nanosecond, // everything is "slow": demo the record
		Logger:    slog.New(slog.NewJSONHandler(&slowLog, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	// In production: http.ListenAndServe(":8080", s). The walkthrough uses
	// an in-process listener so it runs anywhere.
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(path string, body map[string]any) map[string]any {
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	// Client 1 and 2: the same query shape, spelled differently. The
	// normalized fingerprint routes both to one compiled live view.
	q1 := post("/query", map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)"})
	q2 := post("/query", map[string]any{"query": "T(?b) & S(?a,?b) & R(?a)"})
	fmt.Printf("client 1: P(q) = %.3f (cached: %v)\n", q1["probability"], q1["cached"])
	fmt.Printf("client 2: P(q) = %.3f (cached: %v)  <- same plan, different spelling\n",
		q2["probability"], q2["cached"])

	// Client 3: a watch stream. Events arrive in commit order.
	watchResp, err := http.Get(ts.URL + "/watch")
	if err != nil {
		log.Fatal(err)
	}
	defer watchResp.Body.Close()
	events := bufio.NewScanner(watchResp.Body)
	nextEvent := func() map[string]any {
		for events.Scan() {
			line := strings.TrimSpace(events.Text())
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev map[string]any
				json.Unmarshal([]byte(data), &ev)
				return ev
			}
		}
		log.Fatal("watch stream ended")
		return nil
	}
	nextEvent() // the initial snapshot event

	// Client 4: updates. Each commit pushes a refreshed probability to the
	// watch stream; the sweep below raises P(S(a,b)) step by step.
	for _, p := range []float64{0.6, 0.8, 1.0} {
		post("/update", map[string]any{
			"updates": []map[string]any{{"op": "set", "id": 1, "p": p}},
		})
		ev := nextEvent()
		for _, prob := range ev["changed"].(map[string]any) {
			fmt.Printf("watch: commit %v -> P(q) = %.3f  (P(S) raised to %.1f)\n", ev["seq"], prob, p)
		}
	}

	// A batched sensitivity sweep over P(R(a)) in one request: 5 lanes, one
	// override-lane pass over the query's live view.
	lanes := []map[string]float64{{"0": 0.1}, {"0": 0.3}, {"0": 0.5}, {"0": 0.7}, {"0": 0.9}}
	br := post("/batch", map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)", "assignments": lanes})
	fmt.Print("batch sweep over P(R): ")
	for _, p := range br["probabilities"].([]any) {
		fmt.Printf("%.3f ", p)
	}
	fmt.Println()

	var stats server.Statsz
	resp, _ := http.Get(ts.URL + "/statsz")
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	fmt.Printf("statsz: %d queries, %d prepares, %d cache hits, seq %d\n",
		stats.Queries, stats.Prepares, stats.CacheHits, stats.Seq)
	if lat, ok := stats.Latency["query"]; ok {
		fmt.Printf("statsz: /query latency p50 %.1fus, p99 %.1fus over %d requests\n",
			lat.P50us, lat.P99us, lat.Count)
	}

	// The Prometheus surface: the same histograms and counters, scrapable.
	// (pdbd also mirrors this on -debug-addr next to net/http/pprof.)
	mresp, _ := http.Get(ts.URL + "/metrics")
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	fmt.Println("\nselected /metrics series:")
	for _, line := range strings.Split(string(exposition), "\n") {
		if strings.HasPrefix(line, "pdbd_http_requests_total") ||
			strings.HasPrefix(line, `pdbd_plan_cache_events_total{event="hit"}`) ||
			strings.HasPrefix(line, "incr_commits_total") ||
			strings.HasPrefix(line, "pdbd_batch_lanes_sum") {
			fmt.Println("  " + line)
		}
	}

	// One slow-query record: endpoint, total, and the stage breakdown that
	// sums to the end-to-end latency (parse → plan → eval → write).
	fmt.Println("\nfirst slow-query log record:")
	if line, _, ok := strings.Cut(slowLog.String(), "\n"); ok {
		fmt.Println("  " + line)
	}
}
