package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/wal"
)

// answerTol is the agreement the served answers must have with the library.
const answerTol = 1e-9

// reference answers the hot shapes on one TID with the library alone —
// core.PrepareTID, then Probability or ProbabilityBatch on the unsharded
// plan — independent of the server's live views and frozen sharded plans.
// Store fact id i is TID fact i: the serving instance is loaded in order and
// its facts are only ever revived, never compacted.
type reference struct {
	tid   *pdb.TID
	in    *serveInputs
	plans map[int]*core.Plan
	probs map[int]logic.Prob
}

func newReference(in *serveInputs, tid *pdb.TID) *reference {
	return &reference{tid: tid, in: in, plans: map[int]*core.Plan{}, probs: map[int]logic.Prob{}}
}

func (rf *reference) plan(shape int) (*core.Plan, logic.Prob, error) {
	if pl, ok := rf.plans[shape]; ok {
		return pl, rf.probs[shape], nil
	}
	pl, p, err := core.PrepareTID(rf.tid, rf.in.shapes[shape], core.Options{})
	if err != nil {
		return nil, nil, err
	}
	rf.plans[shape], rf.probs[shape] = pl, p
	return pl, p, nil
}

func (rf *reference) query(shape int) (float64, error) {
	pl, p, err := rf.plan(shape)
	if err != nil {
		return 0, err
	}
	return pl.Probability(p)
}

func (rf *reference) batch(b batchSpec) ([]float64, error) {
	pl, p, err := rf.plan(b.shape)
	if err != nil {
		return nil, err
	}
	lanes := make([]logic.Prob, len(b.lanes))
	for l, over := range b.lanes {
		m := make(logic.Prob, len(p))
		for e, v := range p {
			m[e] = v
		}
		for id, v := range over {
			m[rf.tid.EventOf(id)] = v
		}
		lanes[l] = m
	}
	return pl.ProbabilityBatch(lanes)
}

// checker compares served answers with a reference, memoizing the
// reference's answers per shape and per /batch payload.
type checker struct {
	rf      *reference
	queries map[int]float64
	batches map[int][]float64
	rep     *report
}

func newChecker(rf *reference, rep *report) *checker {
	return &checker{rf: rf, queries: map[int]float64{}, batches: map[int][]float64{}, rep: rep}
}

// check verifies one successful response; it returns false on a mismatch.
func (c *checker) check(o serveOp, r *opResult, what string) bool {
	switch o.kind {
	case opQuery:
		want, ok := c.queries[o.shape]
		if !ok {
			var err error
			if want, err = c.rf.query(o.shape); err != nil {
				c.rep.checkf("%s: reference /query: %v", what, err)
				return false
			}
			c.queries[o.shape] = want
		}
		if math.Abs(r.prob-want) > answerTol {
			c.rep.checkf("%s: /query %q = %.15g, library says %.15g", what, c.rf.in.spellings[o.shape][o.ref], r.prob, want)
			return false
		}
	case opBatch:
		want, ok := c.batches[o.ref]
		if !ok {
			var err error
			if want, err = c.rf.batch(c.rf.in.batches[o.ref]); err != nil {
				c.rep.checkf("%s: reference /batch: %v", what, err)
				return false
			}
			c.batches[o.ref] = want
		}
		if len(r.probs) != len(want) {
			c.rep.checkf("%s: /batch returned %d lanes, sent %d", what, len(r.probs), len(want))
			return false
		}
		for l := range want {
			if math.Abs(r.probs[l]-want[l]) > answerTol {
				c.rep.checkf("%s: /batch payload %d lane %d = %.15g, library says %.15g", what, o.ref, l, r.probs[l], want[l])
				return false
			}
		}
	}
	return true
}

// checkStatic checks every /query answer and every /batch lane of a run
// without writes against the library on the loaded instance.
func (sr *serveRun) checkStatic(rep *report) {
	c := newChecker(newReference(sr.in, sr.in.tid), rep)
	for pi, ph := range sr.phases {
		for i, o := range ph.ops {
			if r := &ph.results[i]; r.ok() {
				c.check(o, r, fmt.Sprintf("phase %d op %d", pi, i))
			}
		}
	}
}

// ack is one acknowledged /update: the commit seq it landed in.
type ack struct {
	seq uint64
	upd int
}

// acks collects every acknowledged update, ordered by seq. It records a
// check failure for an update that did not apply completely.
func (sr *serveRun) acks(rep *report) []ack {
	var out []ack
	for pi, ph := range sr.phases {
		for i, o := range ph.ops {
			r := &ph.results[i]
			if o.kind != opUpdate || r.err != nil || r.status != 200 {
				continue
			}
			want := 1
			if sr.in.updates[o.ref].pair {
				want = 2
			}
			if r.applied != want || r.updErr != "" {
				rep.checkf("phase %d op %d: /update applied %d of %d (%s)", pi, i, r.applied, want, r.updErr)
				continue
			}
			out = append(out, ack{seq: r.seq, upd: o.ref})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// rebuildAt returns the instance as of commit seq: the loaded facts with
// every update acknowledged at or before seq applied.
func (sr *serveRun) rebuildAt(acks []ack, seq uint64) *pdb.TID {
	t := pdb.NewTID()
	for i := 0; i < sr.in.tid.NumFacts(); i++ {
		t.Add(sr.in.tid.Fact(i), sr.in.tid.Prob(i))
	}
	for _, a := range acks {
		if a.seq > seq {
			break
		}
		u := sr.in.updates[a.upd]
		t.Probs[u.id] = u.p
	}
	return t
}

// checkSampled rebuilds the instance at the seq of a seeded sample of
// /query and /batch responses and checks each sampled answer against the
// library on it.
func (sr *serveRun) checkSampled(acks []ack, rep *report, perKind int) {
	type pick struct {
		o    serveOp
		r    *opResult
		what string
	}
	var pool [2][]pick
	for pi, ph := range sr.phases {
		for i, o := range ph.ops {
			if r := &ph.results[i]; o.kind != opUpdate && r.ok() {
				pool[o.kind] = append(pool[o.kind], pick{o, r, fmt.Sprintf("phase %d op %d at seq %d", pi, i, r.seq)})
			}
		}
	}
	r := rand.New(rand.NewSource(sr.cfg.seed + 2))
	for _, p := range pool {
		for k := 0; k < perKind && len(p) > 0; k++ {
			s := p[r.Intn(len(p))]
			c := newChecker(newReference(sr.in, sr.rebuildAt(acks, s.r.seq)), rep)
			c.check(s.o, s.r, s.what)
		}
	}
}

// checkRecovery kills the WAL the way kill -9 would, replays it, and
// requires the recovered store to sit at the last acknowledged seq with every
// hot view answering what the live server answers, within 1e-12. It returns
// the replay time.
func (sr *serveRun) checkRecovery(d *pdbd, acks []ack, rep *report) time.Duration {
	want := d.srv.Store().Seq()
	if len(acks) > 0 && acks[len(acks)-1].seq != want {
		rep.checkf("store at seq %d, last acknowledged update at seq %d", want, acks[len(acks)-1].seq)
	}
	d.wal.Kill()
	t0 := time.Now()
	rec, err := wal.Replay(d.backend)
	replay := time.Since(t0)
	if err != nil {
		rep.checkf("wal replay: %v", err)
		return replay
	}
	if rec.Seq != want {
		rep.checkf("wal replay recovered seq %d, last acknowledged seq %d", rec.Seq, want)
	}
	for i, q := range sr.in.shapes {
		v, err := rec.Store.RegisterView(core.NormalizeCQ(q), core.Options{})
		if err != nil {
			rep.checkf("recovered view %s: %v", q, err)
			continue
		}
		code, body, err := d.post("/query", mustJSON(map[string]string{"query": hotShapes[i]}), -1)
		live := decodeResult(opQuery, code, body, err)
		if !live.ok() {
			rep.checkf("live /query %s after kill: %d %v", q, code, live.err)
			continue
		}
		if got := v.Probability(); math.Abs(got-live.prob) > 1e-12 {
			rep.checkf("recovered view %s = %.17g, live server %.17g", q, got, live.prob)
		}
	}
	return replay
}
