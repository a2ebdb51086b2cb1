// Command benchtab regenerates every experiment table of EXPERIMENTS.md
// (the paper has no evaluation tables of its own — see DESIGN.md — so each
// experiment operationalizes one tractability claim as a scaling
// measurement with exact-agreement checks against exponential baselines).
//
// Usage:
//
//	benchtab          # run all experiments
//	benchtab E1 E4    # run selected experiments
//	benchtab -compare [-allocs-gate PCT] OLD.json NEW.json
//	                  # compare two scripts/bench.sh baselines (compare.go)
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/porder"
	"repro/internal/prxml"
	"repro/internal/rel"
	"repro/internal/rules"
	"repro/internal/sampling"
	"repro/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	selected := map[string]bool{}
	for _, a := range os.Args[1:] {
		selected[a] = true
	}
	run := func(id string, fn func()) {
		if len(selected) > 0 && !selected[id] {
			return
		}
		fn()
		fmt.Println()
	}
	run("E1", e1)
	run("E2", e2)
	run("E3", e3)
	run("E4", e4)
	run("E5", e5)
	run("E6", e6)
	run("E7", e7)
	run("E8", e8)
	run("E9", e9)
	run("E10", e10)
	run("E11", e11)
	run("E12", e12)
	run("E13", e13)
	run("E15", e15)
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// e1 — Theorem 1: query probability on bounded-treewidth TIDs scales
// linearly, while world enumeration is exponential in the fact count.
func e1() {
	fmt.Println("E1  Theorem 1: P(∃xy R(x)S(x,y)T(y)) on treewidth-1 TID chains")
	fmt.Println("    one-shot vs prepared plan (Prepare once, evaluate per request):")
	fmt.Println("    n(chain)  facts  oneshot_ms  eval_ms    P(q)        ms/fact")
	q := rel.HardQuery()
	for _, n := range []int{50, 100, 200, 400, 800, 1600, 3200} {
		tid := gen.RSTChain(n, 0.5)
		var res *core.Result
		var err error
		d := timed(func() { res, err = core.ProbabilityTID(tid, q, core.Options{}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		pl, p, err := core.PrepareTID(tid, q, core.Options{})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		if _, err := pl.Probability(p); err != nil { // warm the transition tables
			fmt.Println("    error:", err)
			return
		}
		de := timed(func() { _, err = pl.Probability(p) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		fmt.Printf("    %-9d %-6d %-11s %-10s %.9f %.5f\n", n, tid.NumFacts(), ms(d), ms(de), res.Probability,
			float64(d.Microseconds())/1000/float64(tid.NumFacts()))
	}
	fmt.Println("    agreement vs exhaustive enumeration (exponential baseline):")
	fmt.Println("    n  facts  worlds   engine_ms  enum_ms    |Δ|")
	for _, n := range []int{1, 2, 3, 4} {
		tid := gen.RSTChain(n, 0.5)
		var pe, pn float64
		de := timed(func() { r, _ := core.ProbabilityTID(tid, q, core.Options{}); pe = r.Probability })
		dn := timed(func() { pn = tid.QueryProbabilityEnumeration(q) })
		fmt.Printf("    %-2d %-6d %-8d %-10s %-10s %.1e\n", n, tid.NumFacts(), 1<<uint(tid.NumFacts()), ms(de), ms(dn), math.Abs(pe-pn))
	}
	e1Sweep(q)
}

// e1Sweep measures the multi-lane batched DP and the concurrent serving
// front end against serial evaluation: a 64-assignment parameter sweep on
// the n=800 chain, answered three ways off one shared compiled plan.
func e1Sweep(q rel.CQ) {
	const n, lanes = 800, 64
	tid := gen.RSTChain(n, 0.5)
	pl, base, err := core.PrepareTID(tid, q, core.Options{})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	ps := make([]logic.Prob, lanes)
	for i := range ps {
		m := make(logic.Prob, len(base))
		for e := range base {
			m[e] = 0.1 + 0.8*float64(i)/float64(lanes-1)
		}
		ps[i] = m
	}

	serial := make([]float64, lanes)
	dSerial := timed(func() {
		for i, p := range ps {
			if serial[i], err = pl.Probability(p); err != nil {
				return
			}
		}
	})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	var batched []float64
	dBatch := timed(func() { batched, err = pl.ProbabilityBatch(ps) })
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	maxDelta := 0.0
	for i := range serial {
		maxDelta = math.Max(maxDelta, math.Abs(serial[i]-batched[i]))
	}
	fmt.Printf("    batched sweep, %d assignments on the shared n=%d plan (max |Δ| vs serial %.1e):\n", lanes, n, maxDelta)
	fmt.Printf("    path            total_ms   ms/assignment  speedup\n")
	perSerial := float64(dSerial.Microseconds()) / 1000 / lanes
	perBatch := float64(dBatch.Microseconds()) / 1000 / lanes
	fmt.Printf("    serial x%-3d     %-10s %-14.3f 1.0x\n", lanes, ms(dSerial), perSerial)
	fmt.Printf("    batch %d lanes  %-10s %-14.3f %.1fx\n", lanes, ms(dBatch), perBatch, perSerial/perBatch)

	fmt.Println("    lane sweep (kernel block width vs per-assignment cost, same plan):")
	fmt.Println("    lanes  total_ms   us/assignment")
	for _, B := range []int{8, 64, 256} {
		psB := make([]logic.Prob, B)
		for i := range psB {
			m := make(logic.Prob, len(base))
			for e := range base {
				m[e] = 0.1 + 0.8*float64(i)/float64(B)
			}
			psB[i] = m
		}
		if _, err := pl.ProbabilityBatch(psB); err != nil { // warm
			fmt.Println("    error:", err)
			return
		}
		const reps = 5
		d := timed(func() {
			for r := 0; r < reps; r++ {
				if _, err = pl.ProbabilityBatch(psB); err != nil {
					return
				}
			}
		})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		fmt.Printf("    %-6d %-10s %.3f\n", B, ms(d/reps), float64(d.Microseconds())/reps/float64(B))
	}

	fmt.Println("    parallel serving of the same sweep (core.Serve, shared plan):")
	fmt.Println("    workers  total_ms   ms/request")
	reqs := make([]core.Request, lanes)
	for i, p := range ps {
		reqs[i] = core.Request{Plan: pl, P: p}
	}
	for _, w := range []int{1, 4, 8} {
		var resp []core.Response
		d := timed(func() { resp = core.Serve(reqs, w) })
		for i, r := range resp {
			if r.Err != nil || math.Abs(r.Probability-serial[i]) > 1e-12 {
				fmt.Println("    serve mismatch:", r.Err)
				return
			}
		}
		fmt.Printf("    %-8d %-10s %.3f\n", w, ms(d), float64(d.Microseconds())/1000/lanes)
	}
}

// e2 — Theorem 2: cost grows exponentially in the (joint) width only,
// polynomially in the size; correlated annotations are handled exactly.
func e2() {
	fmt.Println("E2  Theorem 2: hard query over partial k-tree TIDs")
	fmt.Println("    width sweep (n=30 vertices fixed):")
	fmt.Println("    k  facts  width(joint)  engine_ms  P(q)")
	r := rand.New(rand.NewSource(42))
	q := rel.HardQuery()
	for _, k := range []int{1, 2, 3, 4} {
		g, _ := gen.PartialKTree(30, k, 0.6, r)
		tid := gen.RSTOverGraph(g, 0.05, 0.3, r)
		var res *core.Result
		var err error
		d := timed(func() { res, err = core.ProbabilityTID(tid, q, core.Options{}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		fmt.Printf("    %d  %-6d %-13d %-10s %.6f\n", k, tid.NumFacts(), res.Width, ms(d), res.Probability)
	}
	fmt.Println("    size sweep (k=2 fixed):")
	fmt.Println("    n    facts  engine_ms  ms/fact")
	for _, n := range []int{60, 120, 240, 480} {
		g, _ := gen.PartialKTree(n, 2, 0.6, r)
		tid := gen.RSTOverGraph(g, 0.05, 0.3, r)
		var err error
		d := timed(func() { _, err = core.ProbabilityTID(tid, q, core.Options{}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		fmt.Printf("    %-4d %-6d %-10s %.5f\n", n, tid.NumFacts(), ms(d), float64(d.Microseconds())/1000/float64(tid.NumFacts()))
	}
	fmt.Println("    correlated annotations (block events shared by consecutive chain facts):")
	fmt.Println("    n     block  engine_ms  P(path2)   enum_check")
	qp := rel.NewCQ(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
	)
	for _, n := range []int{8, 100, 400, 1600} {
		c, p := gen.CorrelatedPC(n, 4, r)
		var res *core.Result
		var err error
		d := timed(func() { res, err = core.ProbabilityPC(c, p, qp, core.Options{}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		check := "-"
		if n <= 8 {
			check = fmt.Sprintf("%.6f (enum)", c.QueryProbabilityEnumeration(qp, p))
		}
		fmt.Printf("    %-5d %-6d %-10s %.6f  %s\n", n, 4, ms(d), res.Probability, check)
	}
}

// e3 — local PrXML (ind/mux): linear-time pattern probability.
func e3() {
	fmt.Println("E3  Local PrXML (Cohen–Kimelfeld–Sagiv): pattern probability, linear in document size")
	fmt.Println("    nodes   dp_ms     P(pattern)  ms/node")
	pattern := prxml.NewPattern("item").WithDescendant(prxml.NewPattern("value"))
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{50, 100, 200, 400, 800, 1600, 3200} {
		doc := gen.LocalDoc(n, 3, r)
		var p float64
		var err error
		d := timed(func() { p, err = doc.MatchProbability(pattern) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		fmt.Printf("    %-7d %-9s %.6f    %.5f\n", doc.Size(), ms(d), p, float64(d.Microseconds())/1000/float64(doc.Size()))
	}
}

// e4 — event scopes: cost exponential only in the scope bound.
func e4() {
	fmt.Println("E4  PrXML with events: scope bound sweep (20 sections, 2·scope leaves each)")
	fmt.Println("    scope  max_scope  nodes  dp_ms      P(q)        enum_ms")
	// q: some section exposes entries from both of its groups — it needs
	// the correlations, so its probability moves with the scope structure.
	pattern := prxml.NewPattern("section",
		prxml.NewPattern("entry", prxml.NewPattern("payload")))
	for _, scope := range []int{1, 2, 4, 6, 8, 10, 12, 14} {
		r := rand.New(rand.NewSource(int64(scope)))
		doc := gen.ScopedEventDoc(20, scope, r)
		var p float64
		var err error
		d := timed(func() { p, err = doc.MatchProbability(pattern) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		enum := "-"
		if scope*20 <= 14 { // total events small enough to enumerate
			var pe float64
			de := timed(func() { pe = doc.MatchProbabilityEnumeration(pattern) })
			enum = fmt.Sprintf("%s (|Δ|=%.1e)", ms(de), math.Abs(p-pe))
		}
		fmt.Printf("    %-6d %-10d %-6d %-10s %.6f    %s\n", scope, doc.MaxScope(), doc.Size(), ms(d), p, enum)
	}
}

// e5 — the intro's #P-hard query: easy on trees, enumeration explodes on
// bipartite shapes while the engine pays only for the width.
func e5() {
	fmt.Println("E5  Hard query ∃xy R(x)S(x,y)T(y): structure decides the cost")
	fmt.Println("    shape            facts  width  engine_ms  enum_ms")
	q := rel.HardQuery()
	type row struct {
		name string
		tid  *pdb.TID
		enum bool
	}
	rows := []row{
		{"chain n=200", gen.RSTChain(200, 0.5), false},
		{"chain n=4", gen.RSTChain(4, 0.5), true},
		{"bipartite 2x2", gen.RSTBipartite(2, 2, 0.5), true},
		{"bipartite 3x3", gen.RSTBipartite(3, 3, 0.5), true},
		{"bipartite 4x4", gen.RSTBipartite(4, 4, 0.5), false},
		{"bipartite 6x6", gen.RSTBipartite(6, 6, 0.5), false},
	}
	for _, r := range rows {
		var res *core.Result
		var err error
		d := timed(func() { res, err = core.ProbabilityTID(r.tid, q, core.Options{}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		enum := "-"
		if r.enum {
			var pe float64
			de := timed(func() { pe = r.tid.QueryProbabilityEnumeration(q) })
			enum = fmt.Sprintf("%s (|Δ|=%.1e)", ms(de), math.Abs(res.Probability-pe))
		}
		fmt.Printf("    %-16s %-6d %-6d %-10s %s\n", r.name, r.tid.NumFacts(), res.Width, ms(d), enum)
	}
}

// e6 — counting linear extensions: structure decides tractability.
func e6() {
	fmt.Println("E6  Counting linear extensions (Sec. 3): downset DP vs series-parallel closed form")
	fmt.Println("    poset              n      count                 time_ms")
	show := func(name string, n int, fn func() (string, time.Duration)) {
		count, d := fn()
		fmt.Printf("    %-18s %-6d %-21s %s\n", name, n, count, ms(d))
	}
	for _, n := range []int{10, 16, 20} {
		l := porder.Antichain(tuples(n)...)
		show("antichain (DP)", n, func() (string, time.Duration) {
			var c string
			d := timed(func() { b, _ := l.CountLinearExtensions(); c = trunc(b.String()) })
			return c, d
		})
	}
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 20, 24} {
		l := gen.RandomDAGPoset(n, 0.15, 3, r)
		show("sparse random (DP)", n, func() (string, time.Duration) {
			var c string
			d := timed(func() { b, _ := l.CountLinearExtensions(); c = trunc(b.String()) })
			return c, d
		})
	}
	for _, n := range []int{100, 1000, 10000} {
		sp := gen.RandomSP(n, r)
		show("series-parallel", n, func() (string, time.Duration) {
			var c string
			d := timed(func() { c = trunc(sp.CountLinearExtensions().String()) })
			return c, d
		})
	}
}

func tuples(n int) []porder.Tuple {
	out := make([]porder.Tuple, n)
	for i := range out {
		out[i] = porder.Tuple{fmt.Sprintf("t%d", i)}
	}
	return out
}

func trunc(s string) string {
	if len(s) > 18 {
		return s[:12] + fmt.Sprintf("..(%dd)", len(s))
	}
	return s
}

// e7 — the positive relational algebra on LPOs.
func e7() {
	fmt.Println("E7  Order algebra on merged logs: operators and possible-world counts")
	fmt.Println("    k_logs  len  merged_n  worlds(SP)          sel_ms  member_ms")
	for _, k := range []int{2, 3, 4} {
		for _, length := range []int{20, 100} {
			merged := gen.InterleavedLogs(k, length)
			var parts []*porder.SP
			for i := 0; i < k; i++ {
				var labels []porder.Tuple
				for j := 0; j < length; j++ {
					labels = append(labels, porder.Tuple{fmt.Sprintf("m%d", i), "e"})
				}
				parts = append(parts, porder.SPChain(labels...))
			}
			count := trunc(porder.Parallel(parts...).CountLinearExtensions().String())
			var sel *porder.LPO
			dSel := timed(func() {
				sel = porder.Select(merged, func(t porder.Tuple) bool { return t[0] == "m0" })
			})
			// Membership of a round-robin interleaving.
			var world []porder.Tuple
			for j := 0; j < length; j++ {
				for i := 0; i < k; i++ {
					world = append(world, porder.Tuple{fmt.Sprintf("m%d", i), fmt.Sprintf("evt%d", j)})
				}
			}
			var member bool
			dMem := timed(func() { member, _ = merged.IsPossibleWorld(world) })
			if !member || sel.N() != length {
				fmt.Println("    internal check failed")
				return
			}
			fmt.Printf("    %-7d %-4d %-9d %-19s %-7s %s\n", k, length, merged.N(), count, ms(dSel), ms(dMem))
		}
	}
}

// e8 — probabilistic chase: soft transitive closure over uncertain edges.
func e8() {
	fmt.Println("E8  Probabilistic chase: soft transitivity T(x,z) :- T(x,y),T(y,z) [p=0.9] over uncertain chains")
	fmt.Println("    chain  rounds  derived  P(T(end-to-end))  chase_ms")
	prog := rules.NewProgram(
		rules.NewRule(rel.NewAtom("T", rel.V("x"), rel.V("y")), rel.NewAtom("E", rel.V("x"), rel.V("y"))),
		rules.NewSoftRule(0.9, rel.NewAtom("T", rel.V("x"), rel.V("z")),
			rel.NewAtom("T", rel.V("x"), rel.V("y")), rel.NewAtom("T", rel.V("y"), rel.V("z"))),
	)
	for _, n := range []int{2, 3, 4, 5} {
		base := pdb.NewCInstance()
		for i := 0; i < n; i++ {
			base.AddFact(logic.Var(logic.Event(fmt.Sprintf("e%d", i))), "E", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
		}
		prob := logic.Prob{}
		for i := 0; i < n; i++ {
			prob[logic.Event(fmt.Sprintf("e%d", i))] = 0.8
		}
		var res *rules.ChaseResult
		var err error
		d := timed(func() { res, err = prog.Chase(base, prob, rules.ChaseOptions{MaxRounds: 8}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		target := rel.NewFact("T", "v0", fmt.Sprintf("v%d", n))
		i := res.C.Inst.IndexOf(target)
		p := 0.0
		if i >= 0 {
			p = logic.Probability(res.C.Ann[i], res.P)
		}
		fmt.Printf("    %-6d %-7d %-8d %.6f          %s\n", n, res.Rounds, len(res.Derived), p, ms(d))
	}
}

// e9 — conditioning and question selection.
func e9() {
	fmt.Println("E9  Conditioning (Sec. 4): posterior cost and greedy vs random questions")
	fmt.Println("    contributors  facts  posterior_engine_ms  posterior_enum_ms")
	r := rand.New(rand.NewSource(9))
	for _, users := range []int{3, 6, 9} {
		c, p, q := crowdKB(users)
		cd := cond.NewConditioned(c, p)
		cd2, err := cd.ObserveFact(c.Inst.Fact(0), true)
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		var pe, pn float64
		de := timed(func() { pe, err = cd2.Probability(q, core.Options{}) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		dn := timed(func() { pn, _ = cd2.ProbabilityEnumeration(q) })
		if math.Abs(pe-pn) > 1e-9 {
			fmt.Println("    mismatch", pe, pn)
			return
		}
		fmt.Printf("    %-13d %-6d %-20s %s\n", users, c.NumFacts(), ms(de), ms(dn))
	}
	fmt.Println("    questions to certainty (mean over 40 random ground truths, 6 contributors):")
	greedy, random := 0.0, 0.0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		c, p, q := crowdKB(6)
		truth := logic.Valuation{}
		for _, e := range c.Events() {
			truth[e] = r.Float64() < p.P(e)
		}
		oracle := &cond.Oracle{Truth: truth}
		cd := cond.NewConditioned(c, p)
		res, err := cd.ResolveGreedy(q, oracle, 10)
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		greedy += float64(len(res.Questions))
		// Random policy: ask events in random order until certain.
		events := c.Events()
		r.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		cur := cd
		asked := 0
		for _, e := range events {
			post, _ := cur.ProbabilityEnumeration(q)
			if post < 1e-12 || post > 1-1e-12 {
				break
			}
			cur = cur.ObserveEvent(e, oracle.Answer(e))
			asked++
		}
		random += float64(asked)
	}
	fmt.Printf("    greedy %.2f   random %.2f\n", greedy/trials, random/trials)
}

// crowdKB builds a small contributor-trust KB and a two-hop query.
func crowdKB(users int) (*pdb.CInstance, logic.Prob, rel.CQ) {
	c := pdb.NewCInstance()
	p := logic.Prob{}
	for u := 0; u < users; u++ {
		e := logic.Event(fmt.Sprintf("u%d", u))
		p[e] = 0.5 + 0.4*float64(u%3)/3
		c.AddFact(logic.Var(e), "Claim", fmt.Sprintf("s%d", u), fmt.Sprintf("o%d", u%2))
	}
	c.AddFact(logic.True, "Good", "o0")
	q := rel.NewCQ(rel.NewAtom("Claim", rel.V("x"), rel.V("y")), rel.NewAtom("Good", rel.V("y")))
	return c, p, q
}

// e10 — sampling accuracy vs the exact engine.
func e10() {
	fmt.Println("E10 Sampling vs exact (chain n=50, exact P from the engine)")
	tid := gen.RSTChain(50, 0.5)
	q := rel.HardQuery()
	res, err := core.ProbabilityTID(tid, q, core.Options{})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	fmt.Printf("    exact P = %.9f\n", res.Probability)
	fmt.Println("    samples  estimate    |error|    hoeffding_99  time_ms")
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{100, 1000, 10000, 100000} {
		var est sampling.Estimate
		d := timed(func() { est = sampling.QueryTID(tid, q, n, 0.99, r) })
		fmt.Printf("    %-8d %.6f    %.6f   %.6f      %s\n", n, est.P, math.Abs(est.P-res.Probability), est.Radius, ms(d))
	}
	// Worlds decided through the prepared plan (64 samples per multi-lane
	// DP pass) instead of re-matching the query per sample.
	pl, _, err := core.PrepareTID(tid, q, core.Options{})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	fmt.Println("    plan-decided sampling (batched 0/1 lanes):")
	fmt.Println("    samples  estimate    |error|    time_ms")
	for _, n := range []int{1000, 10000} {
		var est sampling.Estimate
		var err error
		d := timed(func() { est, err = sampling.QueryTIDPlan(tid, pl, n, 0.99, r) })
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		fmt.Printf("    %-8d %.6f    %.6f   %s\n", n, est.P, math.Abs(est.P-res.Probability), ms(d))
	}
	fmt.Printf("    samples needed for ±0.001 at 99%%: %d (the exact engine needs one pass)\n",
		sampling.SamplesForRadius(0.001, 0.99))
}

// e11 — incremental maintenance: a live materialized view absorbs updates at
// dirty-spine cost, against re-Prepare + evaluate as the baseline. Depth is
// printed because it bounds the spine a single update recomputes.
func e11() {
	fmt.Println("E11 Incremental maintenance: live views under updates (incr.Store on E1 chains)")
	fmt.Println("    single-tuple SetProb vs re-Prepare+evaluate:")
	fmt.Println("    n(chain)  facts  depth  nodes  update_us  reprep_ms  speedup")
	q := rel.HardQuery()
	for _, n := range []int{100, 400, 800} {
		tid := gen.RSTChain(n, 0.5)
		s, err := incr.NewStore(tid)
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		v, err := s.RegisterView(q, core.Options{})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		const rounds = 50
		d := timed(func() {
			for i := 0; i < rounds; i++ {
				if err = s.SetProb((i*37)%s.Len(), 0.3+0.4*float64(i%2)); err != nil {
					return
				}
				_ = v.Probability()
			}
		})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		perUpdate := float64(d.Microseconds()) / rounds
		dRe := timed(func() {
			tid.Probs[0] = 0.3
			pl, p, errP := core.PrepareTID(tid, q, core.Options{})
			if errP != nil {
				err = errP
				return
			}
			_, err = pl.Probability(p)
		})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		sh := v.Shape()
		reprepMs := float64(dRe.Microseconds()) / 1000
		fmt.Printf("    %-9d %-6d %-6d %-6d %-10.1f %-10.2f %.0fx\n",
			n, s.Len(), sh.Depth, sh.Nodes, perUpdate, reprepMs, reprepMs*1000/perUpdate)
	}

	fmt.Println("    inserts, deletes and batches on the n=400 chain:")
	tid := gen.RSTChain(400, 0.5)
	s, err := incr.NewStore(tid)
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	v, err := s.RegisterView(q, core.Options{})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	base := s.Len() // pre-insert fact count: batch targets only these ids
	const inserts = 40
	dIns := timed(func() {
		for i := 0; i < inserts && err == nil; i++ {
			// A second parallel S edge: absorbed in place by attach.
			_, err = s.Insert(rel.NewFact("S", fmt.Sprintf("v%d", 10*i+1), fmt.Sprintf("v%d", 10*i)), 0.3)
		}
	})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	dDel := timed(func() {
		for i := 0; i < inserts && err == nil; i++ {
			err = s.Delete(s.Len() - 1 - i) // tombstone the freshly inserted facts
		}
	})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	batch := make([]incr.Update, 64)
	for i := range batch {
		batch[i] = incr.Update{Op: incr.OpSet, ID: (i * 17) % base, P: 0.6}
	}
	dBatch := timed(func() { err = s.ApplyBatch(batch) })
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	st := s.Stats()
	fmt.Printf("    path              us/update  detail\n")
	fmt.Printf("    insert (attach)   %-10.1f %d absorbed in place, %d rebuilds\n",
		float64(dIns.Microseconds())/inserts, st.Attached, st.Rebuilds)
	fmt.Printf("    delete (tombstone) %-9.1f %d tombstones pending compaction\n",
		float64(dDel.Microseconds())/inserts, st.Tombstones)
	fmt.Printf("    batch 64 sets     %-10.1f one commit, shared spines\n",
		float64(dBatch.Microseconds())/float64(len(batch)))

	// Exact-agreement check against a full re-Prepare on the mutated store.
	want, err := s.Oracle(q)
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	fmt.Printf("    agreement vs full re-Prepare oracle: |Δ| = %.1e\n", math.Abs(v.Probability()-want))
}

// e12 — sharded plans: the same total fact count split into K disjoint
// chains. Updates route to the single dirty shard, so per-update cost falls
// with the shard size while the instance size stays fixed; the cold path
// evaluates shards in parallel off one sharded plan.
func e12() {
	fmt.Println("E12 Sharded plans: K disjoint chains, 720 facts total (incr.Store + core.PrepareSharded)")
	fmt.Println("    update routing (SetProb through a live hard-query view):")
	fmt.Println("    K(shards)  facts/shard  depth  update_us  tables/update")
	q := rel.HardQuery()
	const links = 240 // 3 facts per link
	for _, k := range []int{1, 2, 4, 8, 16} {
		s, err := incr.NewStore(gen.RSTChains(k, links/k, 0.5))
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		v, err := s.RegisterView(q, core.Options{})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		const rounds = 50
		before := s.Stats().NodesRecomputed
		d := timed(func() {
			for i := 0; i < rounds; i++ {
				if err = s.SetProb((i*37)%s.Len(), float64(i%7+1)/10); err != nil {
					return
				}
				_ = v.Probability()
			}
		})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		tables := float64(s.Stats().NodesRecomputed-before) / rounds
		fmt.Printf("    %-10d %-12d %-6d %-10.1f %.1f\n",
			k, s.Len()/k, v.Shape().Depth, float64(d.Microseconds())/rounds, tables)
	}

	fmt.Println("    cold path (K=8): monolithic Prepare vs PrepareSharded, same instance")
	tid := gen.RSTChains(8, links/8, 0.5)
	var pMono, pShard float64
	dMono := timed(func() {
		pl, p, errP := core.PrepareTID(tid, q, core.Options{})
		if errP == nil {
			pMono, errP = pl.Probability(p)
		}
		if errP != nil {
			fmt.Println("    error:", errP)
		}
	})
	sp, p, err := core.PrepareShardedTID(tid, q, core.Options{})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	dShardPrep := timed(func() {
		sp2, p2, errP := core.PrepareShardedTID(tid, q, core.Options{})
		if errP == nil {
			pShard, errP = sp2.Probability(p2)
		}
		if errP != nil {
			fmt.Println("    error:", errP)
		}
	})
	if _, err := sp.Probability(p); err != nil { // warm
		fmt.Println("    error:", err)
		return
	}
	dEval := timed(func() {
		for i := 0; i < 20; i++ {
			if _, err = sp.Probability(p); err != nil {
				return
			}
		}
	})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	fmt.Printf("    monolithic prepare+eval  %-8s ms\n", ms(dMono))
	fmt.Printf("    sharded    prepare+eval  %-8s ms (%d shards, widths <= %d)\n", ms(dShardPrep), sp.NumShards(), sp.Width())
	fmt.Printf("    sharded eval             %-8s ms/eval (shards fanned over the worker pool)\n",
		fmt.Sprintf("%.2f", float64(dEval.Microseconds())/1000/20))
	fmt.Printf("    agreement |Δ| = %.1e\n", math.Abs(pMono-pShard))
}

// e13 — the query service under load: requests/sec on one cached query
// shape as the client count grows (one Prepare total, everything after is a
// plan-cache hit), plus the batched sweep path, with agreement checks
// against the store's from-scratch oracle.
func e13() {
	fmt.Println("E13 Query service (pdbd): /query throughput on a cached shape (chain n=200)")
	tid := gen.RSTChain(200, 0.5)
	q := rel.HardQuery()
	fmt.Println("    clients  requests  total_ms  req/s    p50_us   p99_us   cache_hit_rate")
	const perClient = 200
	for _, clients := range []int{1, 2, 4, 8} {
		s, err := server.New(tid, server.Config{})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		ts := httptest.NewServer(s)
		body := []byte(`{"query": "T(?b) & S(?a,?b) & R(?a)"}`)
		total := clients * perClient
		var firstErr atomic.Value
		d := timed(func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
						if err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
			}
			wg.Wait()
		})
		if err := firstErr.Load(); err != nil {
			ts.Close()
			fmt.Println("    error:", err)
			return
		}
		st := s.Stats()
		ts.Close()
		if st.Prepares != 1 {
			fmt.Printf("    error: %d prepares for one shape\n", st.Prepares)
			return
		}
		hitRate := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
		// Server-side quantiles from the per-endpoint latency histogram —
		// the same numbers /statsz and /metrics report.
		sn, _ := s.LatencySnapshot("query")
		fmt.Printf("    %-8d %-9d %-9s %-8.0f %-8.1f %-8.1f %.4f\n",
			clients, total, ms(d), float64(total)/d.Seconds(),
			sn.Quantile(0.50)*1e6, sn.Quantile(0.99)*1e6, hitRate)
	}

	fmt.Println("    batched sweep (/batch, 64 lanes/request) vs 64 single /query overrides:")
	s, err := server.New(tid, server.Config{})
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	lanes := make([]map[string]float64, 64)
	for i := range lanes {
		lanes[i] = map[string]float64{"0": float64(i+1) / 65}
	}
	batchBody, _ := json.Marshal(map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)", "assignments": lanes})
	var batchProbs []float64
	dBatch := timed(func() {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(batchBody))
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		defer resp.Body.Close()
		var br struct {
			Probabilities []float64 `json:"probabilities"`
		}
		json.NewDecoder(resp.Body).Decode(&br)
		batchProbs = br.Probabilities
	})
	dSingles := timed(func() {
		for i := range lanes {
			body, _ := json.Marshal(map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)", "assignment": lanes[i]})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				fmt.Println("    error:", err)
				return
			}
			var qr struct {
				Probability float64 `json:"probability"`
			}
			json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if batchProbs != nil && math.Abs(qr.Probability-batchProbs[i]) > 1e-12 {
				fmt.Printf("    mismatch lane %d: %v vs %v\n", i, qr.Probability, batchProbs[i])
				return
			}
		}
	})
	fmt.Printf("    path             total_ms  ms/assignment\n")
	fmt.Printf("    batch 64 lanes   %-9s %.3f\n", ms(dBatch), float64(dBatch.Microseconds())/1000/64)
	fmt.Printf("    single x64       %-9s %.3f\n", ms(dSingles), float64(dSingles.Microseconds())/1000/64)

	// End-to-end freshness: an update commits and the cached view serves the
	// refreshed answer, matching the from-scratch oracle.
	upBody, _ := json.Marshal(map[string]any{"updates": []map[string]any{{"op": "set", "id": 0, "p": 0.95}}})
	if resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(upBody)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	qBody, _ := json.Marshal(map[string]any{"query": "R(?x) & S(?x,?y) & T(?y)"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	var qr struct {
		Probability float64 `json:"probability"`
	}
	json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	want, err := s.Store().Oracle(q)
	if err != nil {
		fmt.Println("    error:", err)
		return
	}
	fmt.Printf("    update freshness: |Δ| vs oracle after commit = %.1e\n", math.Abs(qr.Probability-want))
}

// e15 — mixed read/write serving: concurrent /query readers and /update
// writers on one server, with the ingest batcher off (every write commits
// alone) and on (concurrent writes coalesce into merged commits). The table
// shows the read-side tail latency under write pressure and how many store
// commits the same write stream cost each way; the final row checks the
// served answer still matches the from-scratch oracle.
func e15() {
	fmt.Println("E15 Mixed read/write service (pdbd): 6 readers + 2 writers (chain n=200)")
	tid := gen.RSTChain(200, 0.5)
	q := rel.HardQuery()
	fmt.Println("    ingest  requests  total_ms  req/s    q_p50_us  q_p99_us  commits  coalesced")
	const perClient = 150
	const readers, writers = 6, 2
	for _, batch := range []int{0, 256} {
		// A sub-millisecond accumulation window makes concurrent writers
		// actually share commits at this small scale; production setups can
		// leave it 0 and let the in-flight commit itself be the window.
		var maxWait time.Duration
		if batch > 0 {
			maxWait = 500 * time.Microsecond
		}
		s, err := server.New(tid, server.Config{IngestBatch: batch, IngestMaxWait: maxWait})
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		ts := httptest.NewServer(s)
		queryBody := []byte(`{"query": "R(?x) & S(?x,?y) & T(?y)"}`)
		total := (readers + writers) * perClient
		var firstErr atomic.Value
		d := timed(func() {
			var wg sync.WaitGroup
			for c := 0; c < readers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(queryBody))
						if err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						body := fmt.Sprintf(`{"updates":[{"op":"set","id":%d,"p":%g}]}`,
							(w*263+i*37)%tid.NumFacts(), float64(i%7+1)/10)
						resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
						if err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}(w)
			}
			wg.Wait()
		})
		if err := firstErr.Load(); err != nil {
			ts.Close()
			fmt.Println("    error:", err)
			return
		}
		// Commit count from the store, coalescing counters from /statsz —
		// the same surfaces an operator would read.
		var stz struct {
			IngestFlushes   uint64 `json:"ingest_flushes"`
			IngestCoalesced uint64 `json:"ingest_coalesced"`
		}
		if resp, err := http.Get(ts.URL + "/statsz"); err == nil {
			json.NewDecoder(resp.Body).Decode(&stz)
			resp.Body.Close()
		}
		commits := s.Store().Stats().Commits
		sn, _ := s.LatencySnapshot("query")
		name := "none"
		if batch > 0 {
			name = fmt.Sprintf("%d", batch)
		}
		fmt.Printf("    %-7s %-9d %-9s %-8.0f %-9.1f %-9.1f %-8d %d\n",
			name, total, ms(d), float64(total)/d.Seconds(),
			sn.Quantile(0.50)*1e6, sn.Quantile(0.99)*1e6, commits, stz.IngestCoalesced)

		// Freshness under the batcher: the served probability equals the
		// from-scratch oracle over the final store state.
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(queryBody))
		if err != nil {
			ts.Close()
			fmt.Println("    error:", err)
			return
		}
		var qr struct {
			Probability float64 `json:"probability"`
		}
		json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		want, err := s.Store().Oracle(q)
		ts.Close()
		if err != nil {
			fmt.Println("    error:", err)
			return
		}
		if math.Abs(qr.Probability-want) > 1e-12 {
			fmt.Printf("    mismatch: served %v, oracle %v\n", qr.Probability, want)
			return
		}
	}
	fmt.Println("    (served answers matched the oracle to 1e-12 in both modes)")
}
