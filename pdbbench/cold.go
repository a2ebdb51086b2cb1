package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/pdbio"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// plan-cold answers a seeded stream of fresh (instance, query) pairs with the
// library on one goroutine, so every op pays Prepare: the joint graph, the
// decomposition, the nice form and the first evaluation (determinization
// plus the DP). A share of ops are cond posteriors instead.
const (
	coldMinN, coldMaxN = 16, 40 // vertices of the partial k-tree
	coldSmallN         = 4      // small instances, checked by enumeration
	coldSmallEvery     = 16     // one op in this many is small
	coldPosteriorEvery = 5      // one op in this many is a cond posterior
	coldKeepEdge       = 0.8
	coldSetupOps       = 8 // warm-up ops per set-up round
	coldCheckEvery     = 4 // posteriors re-derived through ProbabilityTID
)

// coldShapes are the 2–3-atom shapes; the S·S path only runs on width-1
// instances: on width 2 it costs ten times R·S·T.
var coldShapes = []string{
	"R(?x) & S(?x,?y) & T(?y)",
	"R(?x) & S(?x,?y)",
	"S(?x,?y) & T(?y)",
	"S(?x,?y) & S(?y,?z)",
}

const ssShape = 3

type coldOp struct {
	tid       *pdb.TID
	q         rel.CQ
	shape     int
	width     int // of the generated graph
	small     bool
	posterior bool
	obsFact   int  // posterior: the observed fact
	present   bool // posterior: observed present (else absent)
}

// coldStream draws ops from the seed; two streams of one seed yield the same
// ops in the same order.
type coldStream struct {
	r      *rand.Rand
	shapes []rel.CQ
	n      int
}

func newColdStream(seed int64) (*coldStream, error) {
	s := &coldStream{r: rand.New(rand.NewSource(seed))}
	for _, text := range coldShapes {
		q, err := pdbio.ParseCQ(text)
		if err != nil {
			return nil, err
		}
		s.shapes = append(s.shapes, q)
	}
	return s, nil
}

// coldClasses are the (shape, width) pairs the stream cycles through. The
// class and size of op i are fixed by i, not drawn, so every seed runs the
// same mix and a percentile never moves because one seed drew more of a
// costly class; the seed draws the graphs, probabilities and observations.
var coldClasses = [][2]int{{0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 1}, {2, 2}, {ssShape, 1}}

func (s *coldStream) next() coldOp {
	r, i := s.r, s.n
	s.n++
	cl := coldClasses[i%len(coldClasses)]
	op := coldOp{
		shape:     cl[0],
		width:     cl[1],
		small:     i%coldSmallEvery == coldSmallEvery-1,
		posterior: i%coldPosteriorEvery == 0,
	}
	if op.posterior {
		// Posteriors are one class, so their median is one population's.
		op.shape, op.width = 0, 1
	}
	n := coldMinN + (i*11)%(coldMaxN-coldMinN+1) // sizes too are the same for every seed
	if op.small {
		n = coldSmallN
	}
	g, _ := gen.PartialKTree(n, op.width, coldKeepEdge, r)
	op.tid = gen.RSTOverGraph(g, probLo, probHi, r)
	op.q = s.shapes[op.shape]
	op.obsFact = r.Intn(op.tid.NumFacts())
	op.present = r.Intn(2) == 0
	return op
}

// coldOutcome is one op's answer and its timings (the op itself is not
// kept, so the run's live heap is the library's, not the stream's).
type coldOutcome struct {
	posterior bool
	prob      float64
	mass      float64 // Result.TotalMass; NaN for a posterior
	dur       time.Duration
	cpu       time.Duration // process CPU time over the op (untraced ops)
	width     int
	nodes     int
	// traced: per public call
	joint, decompose, nice, prepare, firstEval time.Duration
}

// runColdOp answers op untraced: one ProbabilityTID call, or one posterior.
func runColdOp(op coldOp) (coldOutcome, error) {
	t0, c0 := time.Now(), cpuTime()
	if op.posterior {
		p, err := posterior(op)
		return coldOutcome{posterior: true, prob: p, mass: math.NaN(), dur: time.Since(t0), cpu: cpuTime() - c0}, err
	}
	res, err := core.ProbabilityTID(op.tid, op.q, core.Options{})
	if err != nil {
		return coldOutcome{}, err
	}
	return coldOutcome{prob: res.Probability, mass: res.TotalMass, dur: time.Since(t0), cpu: cpuTime() - c0,
		width: res.Width, nodes: res.NiceNodes}, nil
}

func posterior(op coldOp) (float64, error) {
	c, p := op.tid.ToCInstance()
	cd, err := cond.NewConditioned(c, p).ObserveFact(op.tid.Fact(op.obsFact), op.present)
	if err != nil {
		return 0, err
	}
	return cd.Probability(op.q, core.Options{})
}

// runColdOpTraced answers op through its public calls one by one, recording
// a span per call. ToCInstance, JointEventGraph, Decompose and MakeNice are
// re-executed here only to time them: PrepareTID repeats all four internally, so their
// spans measure the inside of the PrepareTID span, not extra work an op needs.
func runColdOpTraced(op coldOp, id int, spans *spanLog, base time.Time) (coldOutcome, error) {
	at := func() time.Duration { return time.Since(base) }
	start := at()
	root := spans.add(id, -1, "cold.op", "bench", start, start)
	call := func(name, layer string, f func() error) (time.Duration, error) {
		t0 := at()
		err := f()
		t1 := at()
		spans.add(id, root, name, layer, t0, t1)
		return t1 - t0, err
	}
	out := coldOutcome{posterior: op.posterior}
	var err error
	if op.posterior {
		var cd *cond.Conditioned
		var pp *cond.PosteriorPlan
		_, err = call("cond.ObserveFact", "cond", func() (err error) {
			c, p := op.tid.ToCInstance()
			cd, err = cond.NewConditioned(c, p).ObserveFact(op.tid.Fact(op.obsFact), op.present)
			return err
		})
		if err == nil {
			_, err = call("cond.PreparePosterior", "cond", func() (err error) {
				pp, err = cd.PreparePosterior(op.q, core.Options{})
				return err
			})
		}
		if err == nil {
			_, err = call("cond.PosteriorPlan.Probability", "cond", func() (err error) {
				out.prob, err = pp.Probability(cd.P)
				return err
			})
		}
		out.mass = math.NaN()
	} else {
		var c *pdb.CInstance
		call("pdb.TID.ToCInstance", "pdb", func() error {
			c, _ = op.tid.ToCInstance()
			return nil
		})
		var g *treedec.Graph
		var d *treedec.Decomposition
		out.joint, _ = call("core.JointEventGraph", "core", func() error {
			g, _, _ = core.JointEventGraph(c, nil)
			return nil
		})
		out.decompose, _ = call("treedec.Decompose", "treedec", func() error {
			d = treedec.Decompose(g, core.Options{}.Heuristic)
			return nil
		})
		out.nice, _ = call("treedec.MakeNice", "treedec", func() error {
			treedec.MakeNice(d)
			return nil
		})
		var pl *core.Plan
		var p logic.Prob
		var res *core.Result
		out.prepare, err = call("core.PrepareTID", "core", func() (err error) {
			pl, p, err = core.PrepareTID(op.tid, op.q, core.Options{})
			return err
		})
		if err == nil {
			out.firstEval, err = call("core.Plan.Result", "core", func() (err error) {
				res, err = pl.Result(p)
				return err
			})
		}
		if err == nil {
			out.prob, out.mass, out.width, out.nodes = res.Probability, res.TotalMass, pl.Width(), pl.NumNiceNodes()
		}
	}
	end := at()
	spans.spans[root].End = us(end)
	out.dur = end - start
	return out, err
}

// checkCold checks one op's answer: the DP's total mass is 1 on every
// ProbabilityTID op; small instances must agree with possible-worlds
// enumeration; posteriors (small ones, and one in coldCheckEvery others) must
// agree with ProbabilityTID on the instance with the observed fact's
// probability forced to 1 or 0.
func checkCold(op coldOp, o coldOutcome, i int, rep *report) {
	if !op.posterior && math.Abs(o.mass-1) > answerTol {
		rep.checkf("cold op %d: TotalMass %.15g", i, o.mass)
	}
	if !(o.prob >= 0 && o.prob <= 1) {
		rep.checkf("cold op %d: probability %v", i, o.prob)
	}
	want, ok := 0.0, false
	switch {
	case op.posterior && (op.small || i%coldCheckEvery == 0):
		t := pdb.NewTID()
		for f := 0; f < op.tid.NumFacts(); f++ {
			t.Add(op.tid.Fact(f), op.tid.Prob(f))
		}
		t.Probs[op.obsFact] = 0
		if op.present {
			t.Probs[op.obsFact] = 1
		}
		if op.small {
			want, ok = t.QueryProbabilityEnumeration(op.q), true
		} else if res, err := core.ProbabilityTID(t, op.q, core.Options{}); err != nil {
			rep.checkf("cold op %d: reference posterior: %v", i, err)
		} else {
			want, ok = res.Probability, true
		}
	case op.small:
		want, ok = op.tid.QueryProbabilityEnumeration(op.q), true
	}
	if ok && math.Abs(o.prob-want) > answerTol {
		rep.checkf("cold op %d (%s, posterior %v): %.15g, reference %.15g", i, op.q, op.posterior, o.prob, want)
	}
}

// coldLoop runs ops from a fresh stream of the seed until budget of wall
// time has passed, calling each op's runner and checking every answer.
func coldLoop(seed int64, budget time.Duration, rep *report, runOp func(coldOp, int) (coldOutcome, error)) ([]coldOutcome, error) {
	s, err := newColdStream(seed)
	if err != nil {
		return nil, err
	}
	var outs []coldOutcome
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		op := s.next()
		o, err := runOp(op, i)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.checkf("cold op %d (%s): %v", i, op.q, err)
			continue
		}
		checkCold(op, o, i, rep)
		outs = append(outs, o)
	}
	return outs, nil
}

func runCold(cfg runConfig, rep *report) error {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return coldTraced(cfg, total, rep)
	}
	// Set-up is the warm-up, in CPU time: a few ops of a fixed stream, so
	// code, allocator and GC pacing are warm.
	// Everything timed runs on one P, as the serve workloads' CPU probe does
	// (oneP).
	var setups []float64
	var outs []coldOutcome
	var err error
	oneP(func() {
		for round := 0; round < setupRounds && err == nil; round++ {
			c0 := cpuTime()
			var s *coldStream
			if s, err = newColdStream(0); err != nil { // the same warm-up for every seed
				break
			}
			for i := 0; i < coldSetupOps && err == nil; i++ {
				if _, err = runColdOp(s.next()); err != nil {
					err = fmt.Errorf("warm-up: %w", err)
				}
			}
			setups = append(setups, (cpuTime() - c0).Seconds())
		}
		if err == nil {
			outs, err = coldLoop(cfg.seed, total, rep, func(op coldOp, _ int) (coldOutcome, error) { return runColdOp(op) })
		}
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups))
	// The gated figures are CPU time: one goroutine does all the work, so
	// wall time is CPU time plus the steal of a shared VM (README.md).
	tid, post, rates := coldSamples(outs, func(o coldOutcome) time.Duration { return o.cpu })
	rep.set("read_p50_us", tid.windowed(0.5))
	rep.set("heavy_cpu_us", post.windowed(0.5))
	rep.note("CPU time: cold op p50 %.4g ms (%.4g ops per CPU-second), posterior p50 %.4g ms (windowed medians)",
		tid.windowed(0.5)/1e3, median(rates), post.windowed(0.5)/1e3)
	tid, post, rates = coldSamples(outs, func(o coldOutcome) time.Duration { return o.dur })
	tailNote(rep, "cold_p50_ms", "cold_p90_ms", tid.scale(1e-3), 0.90)
	rep.note("cold_ops_per_s %.2f 1/s (median over %d windows; %d ProbabilityTID ops on one goroutine)", median(rates), len(rates), len(tid))
	tailNote(rep, "posterior_p50_ms", "posterior_p90_ms", post.scale(1e-3), 0.90)
	rep.note("error_ratio %.4g (%d of %d ops failed)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	heap, err := coldHeapMB(cfg.seed)
	if err != nil {
		return err
	}
	rep.set("heap_live_mb", heap)
	return nil
}

// coldSamples splits the outcomes' times, as picked by of, into
// ProbabilityTID and posterior samples (µs), and gives the ProbabilityTID
// throughput of each of up to eight windows of consecutive ops.
func coldSamples(outs []coldOutcome, of func(coldOutcome) time.Duration) (tid, post sample, rates []float64) {
	var durs []time.Duration
	for _, o := range outs {
		if o.posterior {
			post = append(post, us(of(o)))
		} else {
			tid = append(tid, us(of(o)))
			durs = append(durs, of(o))
		}
	}
	w := len(durs) / 50
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	for i := 0; i < w; i++ {
		var busy time.Duration
		part := durs[i*len(durs)/w : (i+1)*len(durs)/w]
		for _, d := range part {
			busy += d
		}
		rates = append(rates, ratio(float64(len(part)), busy.Seconds()))
	}
	return tid, post, rates
}

// coldHeapDraws is how many sets of plans coldHeapMB holds at once. A plan's
// size depends on the graph the seed draws: one set per seed spread 0.07 of
// its median over ten seeds, and the mean of several sets spreads less.
const coldHeapDraws = 6

// coldHeapMB is the live heap that answered plans hold: one plan per query
// class, each prepared and evaluated on an instance of the largest size —
// the footprint of a caller that keeps its plans. It is measured as the
// growth of the live heap across building coldHeapDraws such sets, divided
// by their number.
func coldHeapMB(seed int64) (float64, error) {
	s, err := newColdStream(seed)
	if err != nil {
		return 0, err
	}
	base := heapLiveMB()
	var plans []*core.Plan
	for d := 0; d < coldHeapDraws; d++ {
		for _, cl := range coldClasses {
			g, _ := gen.PartialKTree(coldMaxN, cl[1], coldKeepEdge, s.r)
			pl, p, err := core.PrepareTID(gen.RSTOverGraph(g, probLo, probHi, s.r), s.shapes[cl[0]], core.Options{})
			if err != nil {
				return 0, err
			}
			if _, err := pl.Result(p); err != nil {
				return 0, err
			}
			plans = append(plans, pl)
		}
	}
	mb := (heapLiveMB() - base) / coldHeapDraws
	runtime.KeepAlive(plans)
	return mb, nil
}

// coldTraced runs the stream untraced for 40% of the time, then from its
// start again through the per-call spans, so the two runs time the same ops.
func coldTraced(cfg runConfig, total time.Duration, rep *report) error {
	var allocs, bytes float64
	var n int
	plainAlloc := func(op coldOp, _ int) (coldOutcome, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		o, err := runColdOp(op)
		runtime.ReadMemStats(&m1)
		if !op.posterior {
			allocs += float64(m1.Mallocs - m0.Mallocs)
			bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			n++
		}
		return o, err
	}
	ref, err := coldLoop(cfg.seed, time.Duration(float64(total)*0.4), rep, plainAlloc)
	if err != nil {
		return err
	}
	refTID, refPost, _ := coldSamples(ref, func(o coldOutcome) time.Duration { return o.dur })
	rep.set("client.read_p50_us", refTID.windowed(0.5))
	rep.set("client.read_tail_us", refTID.windowed(0.90))
	rep.set("client.heavy_p50_us", refPost.windowed(0.5))
	rep.set("client.heavy_tail_us", refPost.windowed(0.90))
	rep.set("core.allocs_per_op", ratio(allocs, float64(n)))
	rep.set("core.bytes_per_op", ratio(bytes, float64(n)))

	spans := &spanLog{}
	base := time.Now()
	traced := func(op coldOp, i int) (coldOutcome, error) { return runColdOpTraced(op, i, spans, base) }
	outs, err := coldLoop(cfg.seed, total-time.Duration(float64(total)*0.4), rep, traced)
	if err != nil {
		return err
	}
	var joint, dec, nice, prep, eval, nodes, post, resid, tracedTID, plainTID sample
	width := 0
	for i, o := range outs {
		if o.posterior {
			post = append(post, ms(o.dur))
			continue
		}
		joint = append(joint, ms(o.joint))
		dec = append(dec, ms(o.decompose))
		nice = append(nice, ms(o.nice))
		prep = append(prep, ms(o.prepare))
		eval = append(eval, ms(o.firstEval))
		nodes = append(nodes, float64(o.nodes))
		if o.width > width {
			width = o.width
		}
		if i < len(ref) {
			// The untraced run timed the same op as one ProbabilityTID call.
			resid = append(resid, ms(ref[i].dur-o.prepare-o.firstEval))
			tracedTID = append(tracedTID, ms(o.prepare+o.firstEval))
			plainTID = append(plainTID, ms(ref[i].dur))
		}
	}
	rep.set("core.joint_graph_ms", joint.quantile(0.5))
	rep.set("treedec.decompose_ms", dec.quantile(0.5))
	rep.set("treedec.nice_ms", nice.quantile(0.5))
	rep.set("core.prepare_ms", prep.quantile(0.5))
	rep.set("core.first_eval_ms", eval.quantile(0.5))
	rep.set("core.nice_nodes_p50", nodes.quantile(0.5))
	rep.set("core.width_max", float64(width))
	rep.set("cond.posterior_ms", post.quantile(0.5))
	rep.set("ledger.cold_residual_ms", resid.quantile(0.5))
	rep.set("trace.overhead_ratio", ratio(tracedTID.quantile(0.5), plainTID.quantile(0.5)))
	rep.note("ledger plan-cold p50 (ms, %d matched ops): ProbabilityTID=%.3f vs PrepareTID+Result=%.3f, residual %.3f; inside PrepareTID: joint=%.3f decompose=%.3f nice=%.3f",
		len(resid), plainTID.quantile(0.5), tracedTID.quantile(0.5), resid.quantile(0.5), joint.quantile(0.5), dec.quantile(0.5), nice.quantile(0.5))
	spans.ledgerNotes(rep, len(outs), "ms")
	path := filepath.Join(cfg.workdir, "trace-"+cfg.workload+".jsonl")
	if err := spans.writeFile(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}
