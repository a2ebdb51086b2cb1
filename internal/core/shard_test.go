package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// randomMultiComponent builds a TID of k disjoint components with random
// shapes and probabilities: RST chains of random length, plus occasional
// lone R or T facts (components that can only contribute partial witnesses,
// exercising the cross-shard join).
func randomMultiComponent(k int, r *rand.Rand) *pdb.TID {
	t := pdb.NewTID()
	for j := 0; j < k; j++ {
		pfx := func(i int) string { return fmt.Sprintf("c%dv%d", j, i) }
		switch r.Intn(4) {
		case 0: // a lone R fact
			t.AddFact(0.1+0.8*r.Float64(), "R", pfx(0))
		case 1: // a lone T fact
			t.AddFact(0.1+0.8*r.Float64(), "T", pfx(0))
		default: // a chain of 1-3 links
			n := 1 + r.Intn(3)
			for i := 0; i < n; i++ {
				t.AddFact(0.1+0.8*r.Float64(), "R", pfx(i))
				t.AddFact(0.1+0.8*r.Float64(), "S", pfx(i), pfx(i+1))
				t.AddFact(0.1+0.8*r.Float64(), "T", pfx(i+1))
			}
		}
	}
	return t
}

// TestShardedMatchesMonolithic is the acceptance property of the sharded
// layer: on randomized multi-component instances, ShardedPlan agrees with
// the monolithic Prepare path to 1e-12 — for the connected hard query, and
// for a disconnected query whose matches span components (where a naive
// per-shard product would be wrong). Small instances are additionally
// cross-checked against world enumeration.
func TestShardedMatchesMonolithic(t *testing.T) {
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("R", rel.V("x")), rel.NewAtom("T", rel.V("y"))),
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		k := 1 + r.Intn(5)
		tid := randomMultiComponent(k, r)
		for qi, q := range queries {
			ctx := fmt.Sprintf("trial %d q%d (%d comps, %d facts)", trial, qi, k, tid.NumFacts())
			sp, p, err := PrepareShardedTID(tid, q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			pl, _, err := PrepareTID(tid, q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			want, err := pl.Probability(p)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			got, err := sp.Probability(p)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: sharded %v, monolithic %v (|Δ|=%.3g)", ctx, got, want, math.Abs(got-want))
			}
			if sp.NumShards() != k {
				t.Fatalf("%s: %d shards, want %d", ctx, sp.NumShards(), k)
			}
			if sp.Width() > pl.Width() {
				t.Errorf("%s: sharded width %d exceeds monolithic %d", ctx, sp.Width(), pl.Width())
			}
			if tid.NumFacts() <= 10 {
				enum := tid.QueryProbabilityEnumeration(q)
				if math.Abs(got-enum) > 1e-9 {
					t.Fatalf("%s: sharded %v, enumeration %v", ctx, got, enum)
				}
			}

			// The batch path: lanes perturb every event independently and
			// must match the monolithic batch lane for lane.
			ps := make([]logic.Prob, 5)
			for l := range ps {
				m := make(logic.Prob, len(p))
				for e := range p {
					m[e] = math.Mod(p.P(e)+0.13*float64(l+1), 1)
				}
				ps[l] = m
			}
			wantB, err := pl.ProbabilityBatch(ps)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			gotB, err := sp.ProbabilityBatch(ps)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			for l := range ps {
				if math.Abs(gotB[l]-wantB[l]) > 1e-12 {
					t.Fatalf("%s lane %d: sharded %v, monolithic %v", ctx, l, gotB[l], wantB[l])
				}
			}
		}
	}
}

// TestShardedRouting checks the fact/event → shard maps that the update
// path routes through.
func TestShardedRouting(t *testing.T) {
	tid := gen.RSTChains(3, 2, 0.5)
	sp, _, err := PrepareShardedTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumShards() != 3 {
		t.Fatalf("%d shards, want 3", sp.NumShards())
	}
	for fi := 0; fi < tid.NumFacts(); fi++ {
		k, ok := sp.ShardOfEvent(tid.EventOf(fi))
		if !ok {
			t.Fatalf("event of fact %d not mapped", fi)
		}
		if k != sp.ShardOfFact(fi) {
			t.Fatalf("fact %d in shard %d but its event in shard %d", fi, sp.ShardOfFact(fi), k)
		}
	}
	if _, ok := sp.ShardOfEvent("nosuch"); ok {
		t.Error("unknown event mapped to a shard")
	}
	if got := len(sp.ShardStats()); got != 3 {
		t.Fatalf("ShardStats has %d entries", got)
	}
}

// TestShardedFrozenConcurrent hammers a sharded plan from many
// goroutines with mixed Probability and ProbabilityBatch calls; run with
// -race in CI.
func TestShardedFrozenConcurrent(t *testing.T) {
	tid := gen.RSTChains(4, 10, 0.5)
	sp, p, err := PrepareShardedTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sp.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	ps := []logic.Prob{p, p}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := sp.Probability(p)
				if err != nil || math.Abs(got-want) > 1e-12 {
					t.Errorf("concurrent Probability = %v, %v", got, err)
					return
				}
				outs, err := sp.ProbabilityBatch(ps)
				if err != nil || math.Abs(outs[0]-want) > 1e-12 || math.Abs(outs[1]-want) > 1e-12 {
					t.Errorf("concurrent batch = %v, %v", outs, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedLaneErrors checks that a bad lane fails alone on the sharded
// batch path, mirroring (*Plan).ProbabilityBatch.
func TestShardedLaneErrors(t *testing.T) {
	tid := gen.RSTChains(2, 3, 0.5)
	sp, p, err := PrepareShardedTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sp.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := logic.Prob{tid.EventOf(0): math.NaN()}
	out, err := sp.ProbabilityBatch([]logic.Prob{p, bad, p})
	le, ok := err.(LaneErrors)
	if !ok {
		t.Fatalf("error %v (%T), want LaneErrors", err, err)
	}
	if le[0] != nil || le[1] == nil || le[2] != nil {
		t.Fatalf("lane errors %v, want only lane 1", []error(le))
	}
	if !math.IsNaN(out[1]) {
		t.Errorf("bad lane output %v, want NaN", out[1])
	}
	for _, l := range []int{0, 2} {
		if math.Abs(out[l]-want) > 1e-12 {
			t.Errorf("healthy lane %d poisoned: %v vs %v", l, out[l], want)
		}
	}
}

// TestShardedOptionValidation: sharded plans reject pinned decompositions
// and lineage emission.
func TestShardedOptionValidation(t *testing.T) {
	tid := gen.RSTChain(2, 0.5)
	c, _ := tid.ToCInstance()
	if _, _, err := PrepareShardedTID(tid, rel.HardQuery(), Options{EmitLineage: true}); err == nil {
		t.Error("EmitLineage accepted")
	}
	joint, _, _ := JointEventGraph(c, c.Inst.IndexDomain())
	d := treedec.Decompose(joint, treedec.MinFill)
	if _, err := PrepareSharded(c, rel.HardQuery(), Options{Joint: d}); err == nil {
		t.Error("pinned joint decomposition accepted")
	}
}

// TestShardedEmptyInstance: a sharded plan over no facts answers 0 for any
// satisfiable CQ with atoms, with mass intact.
func TestShardedEmptyInstance(t *testing.T) {
	sp, err := PrepareSharded(pdb.NewCInstance(), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumShards() != 0 {
		t.Fatalf("%d shards, want 0", sp.NumShards())
	}
	res, err := sp.Result(logic.Prob{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 0 {
		t.Errorf("P(q) over the empty instance = %v", res.Probability)
	}
}

// TestShardedDegenerateMatchesMonolithic is the regression property for
// instances where no component carries facts (empty, or nothing but
// zero-weight tombstones): the sharded fold must land on the exact
// query-on-empty-instance probability the monolithic Prepare computes — 1
// for a trivially-true query, 0 for a CQ with atoms — through Probability,
// Result, Probability and the batch path alike, with matching metadata.
func TestShardedDegenerateMatchesMonolithic(t *testing.T) {
	trivial := rel.NewCQ() // zero atoms: holds on every world
	type tc struct {
		name  string
		build func() (*pdb.CInstance, logic.Prob)
	}
	cases := []tc{
		{"empty", func() (*pdb.CInstance, logic.Prob) {
			return pdb.NewCInstance(), logic.Prob{}
		}},
		{"all-zero-weights", func() (*pdb.CInstance, logic.Prob) {
			tid := pdb.NewTID()
			tid.AddFact(0, "R", "a")
			tid.AddFact(0, "S", "a", "b")
			tid.AddFact(0, "T", "b")
			c, p := tid.ToCInstance()
			return c, p
		}},
		{"floating-only", func() (*pdb.CInstance, logic.Prob) {
			c := pdb.NewCInstance()
			c.AddFact(logic.False, "Z") // 0-ary, never present
			return c, logic.Prob{}
		}},
	}
	for _, c := range cases {
		for qi, q := range []rel.CQ{rel.HardQuery(), trivial, rel.NewCQ(rel.NewAtom("Z"))} {
			ctx := fmt.Sprintf("%s q%d", c.name, qi)
			inst, p := c.build()
			pl, err := PrepareCQ(inst, q, Options{})
			if err != nil {
				t.Fatalf("%s: monolithic: %v", ctx, err)
			}
			want, err := pl.Result(p)
			if err != nil {
				t.Fatalf("%s: monolithic: %v", ctx, err)
			}
			sp, err := PrepareSharded(inst, q, Options{})
			if err != nil {
				t.Fatalf("%s: sharded: %v", ctx, err)
			}
			got, err := sp.Result(p)
			if err != nil {
				t.Fatalf("%s: sharded: %v", ctx, err)
			}
			if math.Abs(got.Probability-want.Probability) > 1e-12 {
				t.Fatalf("%s: sharded %v, monolithic %v", ctx, got.Probability, want.Probability)
			}
			if math.Abs(got.TotalMass-1) > 1e-6 {
				t.Fatalf("%s: mass %v drifted", ctx, got.TotalMass)
			}
			if sp.NumShards() == 0 && sp.Width() != pl.Width() {
				t.Errorf("%s: zero-shard width %d, monolithic %d", ctx, sp.Width(), pl.Width())
			}
			outs, err := sp.ProbabilityBatch([]logic.Prob{p, p})
			if err != nil {
				t.Fatalf("%s: batch: %v", ctx, err)
			}
			for l, o := range outs {
				if math.Abs(o-want.Probability) > 1e-12 {
					t.Fatalf("%s: batch lane %d = %v, want %v", ctx, l, o, want.Probability)
				}
			}
			pr, err := sp.Probability(p)
			if err != nil || math.Abs(pr-want.Probability) > 1e-12 {
				t.Fatalf("%s: Probability %v, %v", ctx, pr, err)
			}
		}
	}
}

// TestShardedTombstonedToEmpty drives an instance to the all-tombstone state
// through the live store path (every fact weight dropped to zero one by one)
// and checks sharded vs monolithic agreement at every step, including the
// final facts-but-no-mass state.
func TestShardedTombstonedToEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		tid := randomMultiComponent(1+r.Intn(4), r)
		q := rel.HardQuery()
		order := r.Perm(tid.NumFacts())
		for _, fi := range order {
			tid.Probs[fi] = 0
			sp, p, err := PrepareShardedTID(tid, q, Options{})
			if err != nil {
				t.Fatalf("trial %d: sharded: %v", trial, err)
			}
			pl, _, err := PrepareTID(tid, q, Options{})
			if err != nil {
				t.Fatalf("trial %d: monolithic: %v", trial, err)
			}
			want, err := pl.Probability(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sp.Probability(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d after zeroing %d: sharded %v, monolithic %v", trial, fi, got, want)
			}
		}
	}
}
