// Command pdbcli evaluates conjunctive queries on uncertain relational
// instances described in a small text format.
//
// Usage:
//
//	pdbcli -i instance.pdb -q 'R(?x) & S(?x,?y) & T(?y)' [-mode prob|possible|certain|all]
//	       [-batch 'e1=0.1,0.5,0.9'] [-parallel N] [-stats] [-shards]
//	       [-updates script.up]
//	pdbcli -data-dir DIR [-q 'R(?x)']
//
// Instance format, one declaration per line ('#' starts a comment):
//
//	fact 0.9 R a          # TID-style fact with marginal probability
//	event e1 0.7          # declare an event with its probability
//	cfact e1 & !e2 S a b  # c-instance fact with a formula annotation
//
// fact and cfact lines may be mixed; plain facts get private events.
//
// -batch sweeps one event's probability over the listed values and answers
// every sweep point against the same compiled plan, through the multi-lane
// batched dynamic program ((*core.Plan).ProbabilityBatch: the row DP runs
// once, carrying one weight lane per value). With -parallel N the sweep is
// instead served as N-way concurrent single evaluations of the shared
// plan (core.Serve), the worker-pool path a query server would use.
//
// -stats prints the shape of the decomposition the plan runs on (width,
// nice nodes, depth, max bag); depth bounds the cost of live updates.
//
// -shards additionally compiles a component-sharded plan (core.PrepareSharded:
// one sub-plan per connected component of the joint graph, combined at the
// root) and prints the per-shard shapes plus the agreement with the
// monolithic answer.
//
// -updates FILE switches to live-update mode: the instance (which must be
// tuple-independent) is loaded into an incr.Store serving the query from a
// live materialized view, and the update script in FILE — set/insert/delete/
// begin/commit/prob/stats commands, see RunUpdates — is replayed against it,
// printing the refreshed probability after every commit. FILE may be "-" to
// read commands from stdin, e.g. interactively.
//
// -data-dir DIR switches to inspection mode: a read-only replay of a pdbd
// durability directory (WAL snapshot + log tail, see internal/wal) that
// prints what recovery would reconstruct — commit sequence, snapshot
// provenance, torn-tail status, live facts, recorded views — and, with -q,
// answers a query against the recovered state. Nothing in DIR is modified.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/pdbio"
)

func main() {
	inPath := flag.String("i", "", "instance file (default: stdin)")
	queryStr := flag.String("q", "", "conjunctive query, e.g. 'R(?x) & S(?x,?y)'")
	mode := flag.String("mode", "all", "prob | possible | certain | all")
	batchSpec := flag.String("batch", "", "sweep one event's probability, e.g. 'e1=0.1,0.5,0.9' (one batched multi-lane evaluation)")
	parallel := flag.Int("parallel", 0, "serve the -batch sweep over N worker goroutines instead of the lane path (0: batched)")
	stats := flag.Bool("stats", false, "print the decomposition shape (width, nice nodes, depth, max bag)")
	shards := flag.Bool("shards", false, "also compile a component-sharded plan and print per-shard statistics")
	updates := flag.String("updates", "", "live-update mode: replay the update script in this file ('-' for stdin) against a live view")
	dataDir := flag.String("data-dir", "", "inspect a pdbd durability directory (read-only replay); -q optionally answers a query against the recovered state")
	flag.Parse()
	// Inspection mode stands alone: the instance comes from the data dir's
	// snapshot + log, not from -i, and -q is optional.
	if *dataDir != "" {
		if err := RunInspect(*dataDir, *queryStr, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *queryStr == "" {
		fmt.Fprintln(os.Stderr, "pdbcli: -q is required")
		os.Exit(2)
	}
	q, err := pdbio.ParseCQ(*queryStr)
	if err != nil {
		fatal(err)
	}
	r := os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	c, p, err := pdbio.ParseInstance(bufio.NewScanner(r))
	if err != nil {
		fatal(err)
	}

	// Live-update mode: load the instance into a store, serve the query from
	// a live materialized view, replay the script.
	if *updates != "" {
		tid, err := pdbio.TIDFromInstance(c, p)
		if err != nil {
			fatal(err)
		}
		script := os.Stdin
		// Interactive means a human at a terminal: a truncated session is
		// the user hanging up, not a broken script. A *piped* stdin
		// ("generate | pdbcli -updates -") is still script mode — its
		// producer dying mid-batch must fail the exit status.
		interactive := false
		if *updates != "-" {
			f, err := os.Open(*updates)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			script = f
		} else if *inPath == "" {
			fatal(fmt.Errorf("-updates - needs -i: stdin cannot carry both the instance and the script"))
		} else if st, err := os.Stdin.Stat(); err == nil {
			interactive = st.Mode()&os.ModeCharDevice != 0
		}
		if err := RunUpdates(tid, q, script, os.Stdout, interactive); err != nil {
			fatal(err)
		}
		return
	}

	switch *mode {
	case "prob", "possible", "certain", "all":
	default:
		fmt.Fprintf(os.Stderr, "pdbcli: unknown -mode %q (want prob|possible|certain|all)\n", *mode)
		os.Exit(2)
	}
	// Validate the sweep flags before paying for plan compilation and the
	// main evaluation.
	if *parallel > 0 && *batchSpec == "" {
		fmt.Fprintln(os.Stderr, "pdbcli: -parallel needs a -batch sweep to serve")
		os.Exit(2)
	}
	var sweepEvent logic.Event
	var sweepVals []float64
	if *batchSpec != "" {
		sweepEvent, sweepVals, err = pdbio.ParseSweep(*batchSpec)
		if err != nil {
			fatal(err)
		}
		if _, declared := p[sweepEvent]; !declared && !slices.Contains(c.Events(), sweepEvent) {
			fatal(fmt.Errorf("-batch event %q is not an event of the instance", sweepEvent))
		}
	}
	fmt.Printf("instance: %d facts, %d events\n", c.NumFacts(), len(c.Events()))
	fmt.Printf("query: %s\n", q)

	// One compiled plan answers every mode: the structural work (domain
	// indexing, decomposition, automaton tables) runs once.
	pl, err := core.PrepareCQ(c, q, core.Options{})
	if err != nil {
		fatal(err)
	}
	res, err := pl.Result(p)
	if err != nil {
		fatal(err)
	}
	if *stats {
		sh := pl.Shape()
		fmt.Printf("decomposition: width %d, %d nice nodes, depth %d, max bag %d\n", sh.Width, sh.Nodes, sh.Depth, sh.MaxBag)
	}
	if *shards {
		sp, err := core.PrepareSharded(c, q, core.Options{})
		if err != nil {
			fatal(err)
		}
		sres, err := sp.Result(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("shards: %d components, max width %d, %d nice nodes total, |Δ| vs monolithic %.1e\n",
			sp.NumShards(), sp.Width(), sp.NumNiceNodes(), math.Abs(sres.Probability-res.Probability))
		for i, st := range sp.ShardStats() {
			fmt.Printf("  shard %d: width %d, %d nodes, depth %d, max bag %d\n", i, st.Width, st.Nodes, st.Depth, st.MaxBag)
		}
	}
	if err := printAnswers(os.Stdout, *mode, pl, p, res); err != nil {
		fatal(err)
	}

	if *batchSpec != "" {
		probs, err := RunSweep(pl, p, sweepEvent, sweepVals, *parallel)
		if err != nil {
			fatal(err)
		}
		how := "multi-lane batch"
		if *parallel > 0 {
			how = fmt.Sprintf("%d parallel workers", *parallel)
		}
		fmt.Printf("sweep over P(%s) (%s):\n", sweepEvent, how)
		for i, v := range sweepVals {
			fmt.Printf("  P(%s)=%.6g  ->  P(q)=%.9f\n", sweepEvent, v, probs[i])
		}
	}
}

// printAnswers writes the answers mode selects: the probability from res,
// and possibility and certainty from the plan's reachability pass, which is
// exact where a threshold on the probability is not (1e-24 is possible, and
// 1-1e-13 is not certain).
func printAnswers(w io.Writer, mode string, pl *core.Plan, p logic.Prob, res *core.Result) error {
	if mode == "prob" || mode == "all" {
		fmt.Fprintf(w, "probability: %.9f (joint width %d)\n", res.Probability, res.Width)
	}
	if mode == "prob" {
		return nil
	}
	possible, certain, err := pl.PossibleCertain(p)
	if err != nil {
		return err
	}
	if mode == "possible" || mode == "all" {
		fmt.Fprintf(w, "possible: %v\n", possible)
	}
	if mode == "certain" || mode == "all" {
		fmt.Fprintf(w, "certain: %v\n", certain)
	}
	return nil
}

// RunSweep evaluates the plan with the probability of event swept over vals,
// all other events as in base. parallel <= 0 answers every sweep point in
// one multi-lane batched evaluation; parallel > 0 fans the points as
// independent requests over that many workers sharing the plan.
func RunSweep(pl *core.Plan, base logic.Prob, event logic.Event, vals []float64, parallel int) ([]float64, error) {
	ps := make([]logic.Prob, len(vals))
	for i, v := range vals {
		m := make(logic.Prob, len(base)+1)
		for e, pr := range base {
			m[e] = pr
		}
		m[event] = v
		ps[i] = m
	}
	if parallel <= 0 {
		return pl.ProbabilityBatch(ps)
	}
	reqs := make([]core.Request, len(ps))
	for i, p := range ps {
		reqs[i] = core.Request{Plan: pl, P: p}
	}
	out := make([]float64, len(ps))
	for i, resp := range core.Serve(reqs, parallel) {
		if resp.Err != nil {
			return nil, resp.Err
		}
		out[i] = resp.Probability
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdbcli:", err)
	os.Exit(1)
}
