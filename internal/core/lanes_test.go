package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/rel"
)

// laneFixture materializes every shard of a sharded plan under p and
// compiles the combiner over them — the live form incr keeps per view.
func laneFixture(t *testing.T, sp *ShardedPlan, p logic.Prob) *ShardCombiner {
	t.Helper()
	mats := make([]*Materialized, len(sp.shards))
	for i, pl := range sp.shards {
		m, err := pl.Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		mats[i] = m
	}
	sc := NewShardCombiner(sp.combQ, mats)
	if _, err := sc.Probability(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestLanePassMatchesFrozen: on random multi-component instances, lanes
// overriding random events through the live lane pass equal the sharded
// plan evaluated on the overridden probability maps, to 1e-12 —
// including lanes that override nothing, lanes that touch several shards,
// and overrides to 0 and 1.
func TestLanePassMatchesFrozen(t *testing.T) {
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("R", rel.V("x")), rel.NewAtom("T", rel.V("y"))),
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		tid := randomMultiComponent(1+r.Intn(5), r)
		for qi, q := range queries {
			ctx := fmt.Sprintf("trial %d q%d", trial, qi)
			sp, p, err := PrepareShardedTID(tid, q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			sc := laneFixture(t, sp, p)
			events := make([]logic.Event, 0, len(p))
			for e := range p {
				events = append(events, e)
			}
			logic.SortEvents(events)
			const B = 7
			ps := make([]logic.Prob, B)
			ovs := make([][]LaneOverride, sp.NumShards())
			for l := range ps {
				ps[l] = logic.Prob{}
				for e, v := range p {
					ps[l][e] = v
				}
				for n := r.Intn(4); n > 0; n-- {
					e := events[r.Intn(len(events))]
					v := []float64{0, 1, r.Float64()}[r.Intn(3)]
					ps[l][e] = v // a repeated event: the later override wins on both sides
					k, _ := sp.ShardOfEvent(e)
					ovs[k] = append(ovs[k], LaneOverride{Lane: int32(l), Event: int32(sp.shards[k].EventIndex(e)), P: v})
				}
			}
			want, err := sp.ProbabilityBatch(ps)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			got, err := sc.ProbabilityBatch(B, ovs, nil)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			for l := range want {
				if math.Abs(got[l]-want[l]) > 1e-12 {
					t.Fatalf("%s lane %d: lane pass %v, plan %v", ctx, l, got[l], want[l])
				}
			}
		}
	}
}

// TestLanePassFailedLanes: lanes the caller rejected come back NaN under a
// LaneErrors while the others keep their values; all-failed batches skip
// the pass; out-of-range overrides are an error, not a panic.
func TestLanePassFailedLanes(t *testing.T) {
	tid := randomMultiComponent(3, rand.New(rand.NewSource(2)))
	sp, p, err := PrepareShardedTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := laneFixture(t, sp, p)
	base, err := sc.Probability()
	if err != nil {
		t.Fatal(err)
	}
	bad := errors.New("rejected")
	got, err := sc.ProbabilityBatch(2, nil, []error{bad, nil})
	le, ok := err.(LaneErrors)
	if !ok || !le.Failed(0) || le.Failed(1) {
		t.Fatalf("error %v, want lane 0 failed only", err)
	}
	if !math.IsNaN(got[0]) || math.Abs(got[1]-base) > 1e-12 {
		t.Fatalf("lanes %v, want [NaN %v]", got, base)
	}
	got, err = sc.ProbabilityBatch(1, nil, []error{bad})
	if _, ok := err.(LaneErrors); !ok || !math.IsNaN(got[0]) {
		t.Fatalf("all-failed batch = %v, %v", got, err)
	}
	ovs := [][]LaneOverride{{{Lane: 0, Event: 1 << 20, P: 0.5}}}
	if _, err := sc.ProbabilityBatch(1, ovs, nil); err == nil {
		t.Fatal("out-of-range event index accepted")
	}
}

// TestLanePassConcurrent: lane passes only read the views, so concurrent
// callers sharing one combiner agree with a serial run (run with -race).
func TestLanePassConcurrent(t *testing.T) {
	tid := randomMultiComponent(4, rand.New(rand.NewSource(8)))
	sp, p, err := PrepareShardedTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := laneFixture(t, sp, p)
	ovs := make([][]LaneOverride, sp.NumShards())
	for k, pl := range sp.shards {
		for e := range pl.events {
			ovs[k] = append(ovs[k], LaneOverride{Lane: int32(e % 3), Event: int32(e), P: 0.25})
		}
	}
	want, err := sc.ProbabilityBatch(3, ovs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := sc.ProbabilityBatch(3, ovs, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for l := range want {
					if got[l] != want[l] {
						t.Errorf("lane %d: concurrent %v, serial %v", l, got[l], want[l])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
