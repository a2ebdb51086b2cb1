package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// TestMaterializedMatchesEval drives random single-event probability changes
// through a Materialized view and checks every refreshed probability against
// a fresh full evaluation of the same plan — including on a correlated
// pc-instance, where one event annotates several facts.
func TestMaterializedMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type instance struct {
		name string
		c    *pdb.CInstance
		p    logic.Prob
		q    rel.CQ
	}
	corrC, corrP := gen.CorrelatedPC(24, 4, r)
	chain := gen.RSTChain(20, 0.5)
	chainC, chainP := chain.ToCInstance()
	cases := []instance{
		{"chain", chainC, chainP, rel.HardQuery()},
		{"correlated", corrC, corrP, rel.NewCQ(
			rel.NewAtom("E", rel.V("x"), rel.V("y")),
			rel.NewAtom("E", rel.V("y"), rel.V("z")),
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := PrepareCQ(tc.c, tc.q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := logic.Prob{}
			for e, pr := range tc.p {
				p[e] = pr
			}
			m, err := pl.Materialize(p)
			if err != nil {
				t.Fatal(err)
			}
			events := tc.c.Events()
			for step := 0; step < 40; step++ {
				e := events[r.Intn(len(events))]
				pr := float64(r.Intn(11)) / 10
				p[e] = pr
				n, err := m.SetEventProb(e, pr)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if n > m.NumNodes() {
					t.Fatalf("step %d: recomputed %d of %d nodes", step, n, m.NumNodes())
				}
				want, err := pl.Probability(p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(m.Probability()-want) > 1e-12 {
					t.Fatalf("step %d: materialized %v, eval %v", step, m.Probability(), want)
				}
			}
		})
	}
}

// TestMaterializedSpineIsSublinear checks the dirty-spine invariant that the
// incremental layer's cost model rests on: a single event change recomputes
// at most depth+1 tables, and on average far fewer than the full node count.
func TestMaterializedSpineIsSublinear(t *testing.T) {
	tid := gen.RSTChain(60, 0.5)
	pl, p, err := PrepareTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	depth := pl.Shape().Depth
	updates := 0
	for i := 0; i < tid.NumFacts(); i += 7 {
		n, err := m.SetEventProb(tid.EventOf(i), 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if n > depth+1 {
			t.Fatalf("fact %d: recomputed %d nodes, depth is %d", i, n, depth)
		}
		updates++
	}
	if avg := m.Recomputed() / updates; avg >= m.NumNodes()/2 {
		t.Fatalf("average recomputation %d of %d nodes is not sublinear", avg, m.NumNodes())
	}
}

// TestMaterializedBatchSharesSpines stages several event changes and commits
// once: shared spine segments must be recomputed a single time, so the batch
// costs less than the same changes committed one by one.
func TestMaterializedBatchSharesSpines(t *testing.T) {
	tid := gen.RSTChain(40, 0.5)
	q := rel.HardQuery()
	mk := func() *Materialized {
		pl, p, err := PrepareTID(tid, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := pl.Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	batched, serial := mk(), mk()
	ids := []int{3, 17, 31, 45, 59}
	for _, i := range ids {
		if err := batched.Stage(tid.EventOf(i), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	nBatch, err := batched.Commit()
	if err != nil {
		t.Fatal(err)
	}
	nSerial := 0
	for _, i := range ids {
		n, err := serial.SetEventProb(tid.EventOf(i), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		nSerial += n
	}
	if nBatch >= nSerial {
		t.Errorf("batched commit recomputed %d nodes, serial %d", nBatch, nSerial)
	}
	if math.Abs(batched.Probability()-serial.Probability()) > 1e-12 {
		t.Errorf("batched %v, serial %v", batched.Probability(), serial.Probability())
	}
}

// TestMaterializedDeltaShortCircuit: a batch that nets out to no change —
// an event staged away from and back to its committed weight — recomputes
// the staged leaf, finds the table identical, and stops there: no spine
// walk, no root recompute, and Probability is bit-identical (the table was
// never touched, so not even float noise moves).
func TestMaterializedDeltaShortCircuit(t *testing.T) {
	tid := gen.RSTChain(30, 0.5)
	pl, p, err := PrepareTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Probability()
	e := tid.EventOf(7)
	orig := p[e]
	if err := m.Stage(e, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := m.Stage(e, orig); err != nil {
		t.Fatal(err)
	}
	cs, err := m.CommitDelta()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Changed {
		t.Fatalf("net-zero churn reported a changed root: %+v", cs)
	}
	if cs.Nodes == 0 || cs.Rows == 0 {
		t.Fatalf("churn staged nothing: %+v", cs)
	}
	if cs.ShortCircuits == 0 {
		t.Fatalf("unchanged table did not cut the spine: %+v", cs)
	}
	if cs.Nodes > 2 {
		t.Fatalf("short-circuited churn still walked %d nodes", cs.Nodes)
	}
	if got := m.Probability(); got != before {
		t.Fatalf("probability moved on a no-op commit: %v -> %v", before, got)
	}

	// A genuine change afterwards still propagates and matches the oracle.
	if err := m.Stage(e, 0.9); err != nil {
		t.Fatal(err)
	}
	cs, err = m.CommitDelta()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Changed || cs.ShortCircuits != 0 {
		t.Fatalf("real change did not propagate to the root: %+v", cs)
	}
	p[e] = 0.9
	want, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Probability()-want) > 1e-12 {
		t.Fatalf("after churn + change: materialized %v, eval %v", m.Probability(), want)
	}
}

// TestMaterializedDeltaMatchesOracle drives random staged batches through
// CommitDelta and checks every refreshed probability against a full
// evaluation, while asserting the delta pass recomputes a strict subset of
// the view's rows for small batches on a long chain.
func TestMaterializedDeltaMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tid := gen.RSTChain(50, 0.5)
	pl, p, err := PrepareTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	events := tid.NumFacts()
	depth := pl.Shape().Depth
	for round := 0; round < 25; round++ {
		k := 1 + r.Intn(3)
		for j := 0; j < k; j++ {
			e := tid.EventOf(r.Intn(events))
			pr := float64(r.Intn(11)) / 10
			p[e] = pr
			if err := m.Stage(e, pr); err != nil {
				t.Fatal(err)
			}
		}
		cs, err := m.CommitDelta()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pl.Probability(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Probability()-want) > 1e-12 {
			t.Fatalf("round %d: materialized %v, eval %v", round, m.Probability(), want)
		}
		// A ≤3-event batch walks at most 3 spines (shared segments counted
		// once), never the whole plan.
		if cs.Nodes > k*(depth+1) {
			t.Fatalf("round %d: %d staged events recomputed %d nodes (depth %d)", round, k, cs.Nodes, depth)
		}
	}
}

// TestMaterializedAttach grows a live view fact by fact and checks each
// refreshed probability against a plan freshly prepared on the grown
// instance.
func TestMaterializedAttach(t *testing.T) {
	c := pdb.NewCInstance()
	p := logic.Prob{}
	add := func(e logic.Event, pr float64, rl string, args ...string) {
		c.AddFact(logic.Var(e), rl, args...)
		p[e] = pr
	}
	add("e0", 0.9, "R", "a")
	add("e1", 0.5, "S", "a", "b")
	add("e2", 0.8, "T", "b")
	add("e3", 0.7, "S", "a", "c")
	q := rel.HardQuery()
	pl, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}

	attach := func(e logic.Event, pr float64, rl string, args ...string) {
		t.Helper()
		f := rel.NewFact(rl, args...)
		if !m.CanAttach(f) {
			t.Fatalf("cannot attach %s", f)
		}
		c.Add(f, logic.Var(e))
		p[e] = pr
		if _, err := m.AttachFact(f, e, pr); err != nil {
			t.Fatal(err)
		}
		// Oracle: a fresh plan over the grown instance.
		fresh, err := PrepareCQ(c, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Probability(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Probability()-want) > 1e-12 {
			t.Fatalf("after attaching %s: materialized %v, fresh %v", f, m.Probability(), want)
		}
	}
	attach("e4", 0.4, "T", "c") // completes the a-c path
	attach("e5", 0.6, "R", "b") // new R witness
	attach("e6", 0.3, "T", "a") // unary fact on an existing element
	attach("e7", 0.2, "R", "c") // another unary witness

	// Probability changes on attached facts ride the same dirty-spine path.
	if _, err := m.SetEventProb("e6", 0.9); err != nil {
		t.Fatal(err)
	}
	fresh, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p["e6"] = 0.9
	want, err := fresh.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Probability()-want) > 1e-12 {
		t.Fatalf("after SetEventProb on attached fact: %v vs %v", m.Probability(), want)
	}

	// A fact with an unknown constant cannot be absorbed.
	if m.CanAttach(rel.NewFact("T", "zzz")) {
		t.Error("CanAttach accepted a fact outside the domain")
	}
}

// TestMaterializedAttachOnChainFallbackCase checks that CanAttach refuses a
// fact whose argument vertices share no bag of the decomposition.
func TestMaterializedAttachOnChainFallbackCase(t *testing.T) {
	tid := gen.RSTChain(30, 0.5)
	pl, p, err := PrepareTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	// v0 and v25 are far apart on the chain: no bag holds both.
	if m.CanAttach(rel.NewFact("S", "v0", "v25")) {
		t.Error("CanAttach accepted a scope no bag covers")
	}
	if !m.CanAttach(rel.NewFact("S", "v3", "v4")) {
		t.Error("CanAttach refused an in-bag scope")
	}
}

// TestMaterializedFrozenAndStale covers the guard rails: staging validates
// its inputs, and views of one plan are independent — after one view
// attaches a fact, a second view of the same plan keeps answering for the
// plan's instance, and the attaching view for the grown one.
func TestMaterializedFrozenAndStale(t *testing.T) {
	tid := gen.RSTChain(4, 0.5)
	pl, p, err := PrepareTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stage("nosuch", 0.5); err == nil {
		t.Error("Stage accepted an unknown event")
	}
	if err := m.Stage(tid.EventOf(0), math.NaN()); err == nil {
		t.Error("Stage accepted NaN")
	}
	if err := m.Stage(tid.EventOf(0), 1.5); err == nil {
		t.Error("Stage accepted 1.5")
	}

	// A second view of the same plan stays correct after the first attaches.
	c, cp := tid.ToCInstance()
	spl, err := PrepareCQ(c, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := spl.Materialize(cp)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := spl.Materialize(cp)
	if err != nil {
		t.Fatal(err)
	}
	f := rel.NewFact("R", "v1")
	c.Add(f, logic.Var("fresh"))
	if _, err := v1.AttachFact(f, "fresh", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := v1.SetEventProb(tid.EventOf(0), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.SetEventProb(tid.EventOf(0), 0.1); err != nil {
		t.Fatalf("second view after a foreign attach: %v", err)
	}
	cp[tid.EventOf(0)] = 0.1
	want2, err := spl.Probability(cp) // the plan still describes the original instance
	if err != nil {
		t.Fatal(err)
	}
	cp["fresh"] = 0.5
	grown, err := PrepareCQ(c, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want1, err := grown.Probability(cp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v2.Probability()-want2) > 1e-12 {
		t.Errorf("second view %v, plan %v", v2.Probability(), want2)
	}
	if math.Abs(v1.Probability()-want1) > 1e-12 {
		t.Errorf("attaching view %v, fresh plan on the grown instance %v", v1.Probability(), want1)
	}
	if v2.NumNodes() != spl.NumNiceNodes() || v1.NumNodes() != spl.NumNiceNodes()+2 {
		t.Errorf("node counts: plan %d, second view %d, attaching view %d", spl.NumNiceNodes(), v2.NumNodes(), v1.NumNodes())
	}
}

// TestMaterializedManyAttachesMatchOracle interleaves attaches and
// probability changes on a mid-size chain, comparing against fresh plans.
func TestMaterializedManyAttachesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tid := gen.RSTChain(12, 0.5)
	c, p := tid.ToCInstance()
	q := rel.HardQuery()
	pl, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for step := 0; step < 30; step++ {
		if r.Intn(2) == 0 {
			// Random S edge between adjacent chain elements (covered bags).
			i := r.Intn(12)
			f := rel.NewFact("S", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
			if c.Inst.IndexOf(f) >= 0 || !m.CanAttach(f) {
				continue
			}
			e := logic.Event(fmt.Sprintf("new%d", next))
			next++
			pr := float64(1+r.Intn(9)) / 10
			c.Add(f, logic.Var(e))
			p[e] = pr
			if _, err := m.AttachFact(f, e, pr); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			events := c.Events()
			e := events[r.Intn(len(events))]
			pr := float64(r.Intn(11)) / 10
			p[e] = pr
			if _, err := m.SetEventProb(e, pr); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		fresh, err := PrepareCQ(c, q, Options{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := fresh.Probability(p)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if math.Abs(m.Probability()-want) > 1e-12 {
			t.Fatalf("step %d: materialized %v, fresh %v", step, m.Probability(), want)
		}
	}
}

// TestPlanEvaluationAfterAttach evaluates a plan while a view of it grows
// through Materialized.AttachFact: the plan's own Probability, Result and
// ProbabilityBatch must stay bit-identical to their answers before the
// first attach (the plan never sees the view's splices), while the view and
// its lane pass agree with a plan freshly prepared on the grown instance. It
// runs a CQ and an s-t connectivity query; the reach edges touch the source,
// the target, the middle, and one is a self-loop.
func TestPlanEvaluationAfterAttach(t *testing.T) {
	reachTID := pdb.NewTID()
	for i := 0; i < 6; i++ {
		reachTID.AddFact(0.5, "E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	for _, tc := range []struct {
		name  string
		tid   *pdb.TID
		q     Query
		facts []rel.Fact
	}{
		{"cq", gen.RSTChain(6, 0.5), mustCQ(t, rel.HardQuery()), []rel.Fact{
			rel.NewFact("R", "v2"),
			rel.NewFact("S", "v3", "v4"),
			rel.NewFact("T", "v1"),
		}},
		{"reach", reachTID, NewReachQuery("E", "n0", "n6"), []rel.Fact{
			rel.NewFact("E", "n1", "n0"),
			rel.NewFact("E", "n5", "n6"),
			rel.NewFact("E", "n3", "n2"),
			rel.NewFact("E", "n4", "n4"),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, p := tc.tid.ToCInstance()
			pl, err := Prepare(c, tc.q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			flip := func(p logic.Prob) logic.Prob {
				alt := logic.Prob{}
				for ev, v := range p {
					alt[ev] = 1 - v
				}
				return alt
			}
			before, err := pl.ProbabilityBatch([]logic.Prob{p, flip(p)})
			if err != nil {
				t.Fatal(err)
			}
			nodes := pl.NumNiceNodes()
			m, err := pl.Materialize(p)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range tc.facts {
				if !m.CanAttach(f) {
					t.Fatalf("cannot attach %s", f)
				}
				e := logic.Event(fmt.Sprintf("att%d", i))
				pr := 0.3 + 0.2*float64(i)
				c.Add(f, logic.Var(e))
				p[e] = pr
				if _, err := m.AttachFact(f, e, pr); err != nil {
					t.Fatal(err)
				}
				alt := flip(p)
				lanes := []logic.Prob{p, alt}

				// The plan ignores the events it does not know, so it
				// answers exactly as before the attach.
				got, err := pl.Probability(p)
				if err != nil {
					t.Fatalf("after %s: Probability: %v", f, err)
				}
				if got != before[0] {
					t.Errorf("after %s: plan Probability %v, before the attach %v", f, got, before[0])
				}
				res, err := pl.Result(alt)
				if err != nil {
					t.Fatalf("after %s: Result: %v", f, err)
				}
				if res.Probability != before[1] {
					t.Errorf("after %s: plan Result %v, before the attach %v", f, res.Probability, before[1])
				}
				if res.NiceNodes != nodes {
					t.Errorf("after %s: plan reports %d nice nodes, Prepare compiled %d", f, res.NiceNodes, nodes)
				}
				batch, err := pl.ProbabilityBatch(lanes)
				if err != nil {
					t.Fatalf("after %s: ProbabilityBatch: %v", f, err)
				}
				for l := range lanes {
					if batch[l] != before[l] {
						t.Errorf("after %s: plan lane %d %v, before the attach %v", f, l, batch[l], before[l])
					}
				}

				fresh, err := Prepare(c, tc.q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.ProbabilityBatch(lanes)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(m.Probability()-want[0]) > 1e-12 {
					t.Errorf("after %s: view %v, fresh %v", f, m.Probability(), want[0])
				}
				if m.NumNodes() != nodes+2*(i+1) {
					t.Errorf("after %s: view has %d nodes, want %d", f, m.NumNodes(), nodes+2*(i+1))
				}
				// The view's lane pass: lane 0 keeps the view's weights, lane 1
				// overrides every event.
				var ovs []LaneOverride
				for ev, v := range alt {
					ovs = append(ovs, LaneOverride{Lane: 1, Event: int32(m.EventIndex(ev)), P: v})
				}
				for l, v := range viewLanes(t, m, 2, ovs) {
					if math.Abs(v-want[l]) > 1e-12 {
						t.Errorf("after %s: view lane %d %v, fresh %v", f, l, v, want[l])
					}
				}
			}
		})
	}
}

// viewLanes runs a view's lane pass under ovs and returns each lane's
// accepting root mass.
func viewLanes(t *testing.T, m *Materialized, B int, ovs []LaneOverride) []float64 {
	t.Helper()
	ls := new(laneScratch)
	root, err := m.laneRoot(ls, B, ovs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, B)
	for i, k := range m.layouts[m.st.root] {
		if m.au.accept[k.set] {
			for l := range out {
				out[l] += root[i*B+l]
			}
		}
	}
	return out
}
