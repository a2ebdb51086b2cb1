package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/rel"
)

// randomProbMaps draws B independent probability maps over the events of p.
func randomProbMaps(r *rand.Rand, p logic.Prob, b int) []logic.Prob {
	out := make([]logic.Prob, b)
	for i := range out {
		m := make(logic.Prob, len(p))
		for e := range p {
			m[e] = r.Float64()
		}
		out[i] = m
	}
	return out
}

// TestProbabilityBatchMatchesSerialAndEnumeration is the batch property
// test: every lane of ProbabilityBatch must agree with a serial
// (*Plan).Probability call under the same map (tight tolerance; only float
// summation order differs) and with the possible-worlds enumeration oracle.
func TestProbabilityBatchMatchesSerialAndEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("R", rel.V("x"))),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z"))),
	}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := randomTID(r, 1+r.Intn(8))
		q := queries[r.Intn(len(queries))]
		pl, p, err := PrepareTID(tid, q, Options{})
		if err != nil {
			t.Logf("seed %d: prepare: %v", seed, err)
			return false
		}
		ps := append([]logic.Prob{p}, randomProbMaps(r, p, 1+r.Intn(7))...)
		got, err := pl.ProbabilityBatch(ps)
		if err != nil {
			t.Logf("seed %d: batch: %v", seed, err)
			return false
		}
		if len(got) != len(ps) {
			t.Logf("seed %d: %d lanes in, %d out", seed, len(ps), len(got))
			return false
		}
		for i, p := range ps {
			serial, err := pl.Probability(p)
			if err != nil {
				t.Logf("seed %d: serial lane %d: %v", seed, i, err)
				return false
			}
			if math.Abs(got[i]-serial) > 1e-12 {
				t.Logf("seed %d lane %d: batch %v, serial %v", seed, i, got[i], serial)
				return false
			}
			c, _ := tid.ToCInstance()
			if want := c.QueryProbabilityEnumeration(q, p); math.Abs(got[i]-want) > 1e-9 {
				t.Logf("seed %d lane %d: batch %v, enumeration %v", seed, i, got[i], want)
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestProbabilityBatchCorrelatedPC exercises the batch path on pc-instances
// with shared events across annotations.
func TestProbabilityBatchCorrelatedPC(t *testing.T) {
	q := rel.NewCQ(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
	)
	r := rand.New(rand.NewSource(17))
	c, p := gen.CorrelatedPC(8, 3, r)
	pl, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := append([]logic.Prob{p}, randomProbMaps(r, p, 5)...)
	got, err := pl.ProbabilityBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if want := c.QueryProbabilityEnumeration(q, p); math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("lane %d: batch %v, enumeration %v", i, got[i], want)
		}
	}
}

// TestProbabilityBatchEmpty checks the degenerate lane counts.
func TestProbabilityBatchEmpty(t *testing.T) {
	pl, p, err := PrepareTID(gen.RSTChain(4, 0.5), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := pl.ProbabilityBatch(nil); err != nil || out != nil {
		t.Errorf("empty batch: %v, %v", out, err)
	}
	one, err := pl.ProbabilityBatch([]logic.Prob{p})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one[0]-serial) > 1e-12 {
		t.Errorf("1-lane batch %v, serial %v", one[0], serial)
	}
}

// TestProbabilityBatchLaneErrors checks per-lane failure isolation: an
// invalid lane comes back as NaN under a LaneErrors while every other lane
// still carries its exact probability.
func TestProbabilityBatchLaneErrors(t *testing.T) {
	pl, p, err := PrepareTID(gen.RSTChain(3, 0.5), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := logic.Prob{}
	for e := range p {
		bad[e] = 1.5
	}
	nan := logic.Prob{}
	for e := range p {
		nan[e] = math.NaN()
	}
	out, err := pl.ProbabilityBatch([]logic.Prob{p, bad, p, nan})
	if err == nil {
		t.Fatal("invalid lanes accepted")
	}
	le, ok := err.(LaneErrors)
	if !ok {
		t.Fatalf("error %v (%T), want LaneErrors", err, err)
	}
	if le[0] != nil || le[1] == nil || le[2] != nil || le[3] == nil {
		t.Fatalf("lane errors %v, want lanes 1 and 3 only", []error(le))
	}
	if le.Failed(0) || !le.Failed(1) {
		t.Error("Failed() disagrees with the entries")
	}
	for _, l := range []int{1, 3} {
		if !math.IsNaN(out[l]) {
			t.Errorf("bad lane %d output %v, want NaN", l, out[l])
		}
	}
	for _, l := range []int{0, 2} {
		if math.Abs(out[l]-want) > 1e-12 {
			t.Errorf("healthy lane %d poisoned: %v vs %v", l, out[l], want)
		}
	}
}

// TestServeMixedPlans fans requests over mixed plans and probability maps
// through the worker pool and checks every response against a serial run.
func TestServeMixedPlans(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	q1 := rel.HardQuery()
	q2 := rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z")))
	pl1, p1, err := PrepareTID(gen.RSTChain(20, 0.5), q1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl2, p2, err := PrepareTID(gen.RSTChain(15, 0.4), q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			reqs = append(reqs, Request{Plan: pl1, P: randomProbMaps(r, p1, 1)[0]})
		} else {
			reqs = append(reqs, Request{Plan: pl2, P: randomProbMaps(r, p2, 1)[0]})
		}
	}
	reqs = append(reqs, Request{Plan: nil, P: p1})
	for _, workers := range []int{0, 1, 4, 8} {
		resp := Serve(reqs, workers)
		if len(resp) != len(reqs) {
			t.Fatalf("workers=%d: %d responses for %d requests", workers, len(resp), len(reqs))
		}
		for i, rq := range reqs {
			if rq.Plan == nil {
				if resp[i].Err == nil {
					t.Errorf("workers=%d: nil-plan request %d did not error", workers, i)
				}
				continue
			}
			if resp[i].Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, resp[i].Err)
			}
			want, err := rq.Plan.Probability(rq.P)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(resp[i].Probability-want) > 1e-12 {
				t.Errorf("workers=%d request %d: served %v, serial %v", workers, i, resp[i].Probability, want)
			}
		}
	}
}

// TestProbabilityBatchAllLanesInvalid: a batch with no valid lane skips the
// dynamic program and returns all-NaN under a full LaneErrors.
func TestProbabilityBatchAllLanesInvalid(t *testing.T) {
	pl, p, err := PrepareTID(gen.RSTChain(3, 0.5), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := logic.Prob{}
	for e := range p {
		bad[e] = -1
	}
	out, err := pl.ProbabilityBatch([]logic.Prob{bad, bad})
	le, ok := err.(LaneErrors)
	if !ok || le[0] == nil || le[1] == nil {
		t.Fatalf("error %v (%T), want LaneErrors on both lanes", err, err)
	}
	for l, v := range out {
		if !math.IsNaN(v) {
			t.Errorf("lane %d = %v, want NaN", l, v)
		}
	}
}

// TestProbabilityBatchLaneWidths is the lane-width property test of the
// kernel layer: for every block width the arena classes and fused sweeps care
// about — 1, 3, one under/at/over the 64-lane register sweet spot, and a wide
// 256 — every healthy lane of ProbabilityBatch must equal the scalar
// Probability under the same map to 1e-12, failed lanes must come back as NaN
// at exactly their positions.
func TestProbabilityBatchLaneWidths(t *testing.T) {
	pl, p, err := PrepareTID(gen.RSTChain(5, 0.5), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var poisonEvent logic.Event
	for e := range p {
		poisonEvent = e
		break
	}
	r := rand.New(rand.NewSource(7))
	for _, B := range []int{1, 3, 63, 64, 65, 256} {
		ps := randomProbMaps(r, p, B)
		bad := map[int]bool{}
		if B >= 3 {
			// Poison a spread of lanes, including the block edges.
			for _, i := range []int{1, B / 2, B - 1} {
				ps[i][poisonEvent] = 1.5
				bad[i] = true
			}
		}
		got, err := pl.ProbabilityBatch(ps)
		if len(bad) == 0 && err != nil {
			t.Fatalf("B=%d: %v", B, err)
		}
		le, _ := err.(LaneErrors)
		if len(bad) > 0 && le == nil {
			t.Fatalf("B=%d: no LaneErrors for %d poisoned lanes (err %v)", B, len(bad), err)
		}
		for i := 0; i < B; i++ {
			if bad[i] {
				if !math.IsNaN(got[i]) {
					t.Errorf("B=%d lane %d: poisoned lane = %v, want NaN", B, i, got[i])
				}
				if le[i] == nil {
					t.Errorf("B=%d lane %d: poisoned lane has no error", B, i)
				}
				continue
			}
			if le != nil && le[i] != nil {
				t.Errorf("B=%d lane %d: healthy lane failed: %v", B, i, le[i])
				continue
			}
			serial, err := pl.Probability(ps[i])
			if err != nil {
				t.Fatalf("B=%d lane %d: serial: %v", B, i, err)
			}
			if math.Abs(got[i]-serial) > 1e-12 {
				t.Errorf("B=%d lane %d: batch %v, serial %v", B, i, got[i], serial)
			}
		}
	}
}

// TestMassEpsRejectsIdentically pins the shared mass-conservation window:
// massDrifted is the single predicate both the scalar evaluation and the
// batch epilogue consult, its boundary sits at massEps, and a drifting root
// mass is rejected by Probability and ProbabilityBatch with the same error.
func TestMassEpsRejectsIdentically(t *testing.T) {
	for _, tc := range []struct {
		total float64
		drift bool
	}{
		{1, false},
		{1 - massEps/2, false},
		{1 + massEps/2, false},
		{1 - 2*massEps, true},
		{1 + 2*massEps, true},
		{0, true},
	} {
		if got := massDrifted(tc.total); got != tc.drift {
			t.Errorf("massDrifted(%v) = %v, want %v", tc.total, got, tc.drift)
		}
	}

	// Skew a plan's compiled root layout so its mass genuinely drifts, then
	// check the scalar and batch paths reject with the identical error.
	pl, p, err := PrepareTID(gen.RSTChain(3, 0.5), rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl.prog.rootSets = nil // no root rows: total mass 0, far outside the window
	_, serialErr := pl.Probability(p)
	if serialErr == nil {
		t.Fatal("scalar evaluation accepted a drifting mass")
	}
	_, batchErr := pl.ProbabilityBatch([]logic.Prob{p, p})
	le, ok := batchErr.(LaneErrors)
	if !ok {
		t.Fatalf("batch evaluation: %v, want LaneErrors", batchErr)
	}
	for i, lerr := range le {
		if lerr == nil {
			t.Fatalf("lane %d accepted a drifting mass", i)
		}
		if lerr.Error() != serialErr.Error() {
			t.Errorf("lane %d rejects with %q, scalar with %q", i, lerr, serialErr)
		}
	}
}
