package incr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/rel"
)

// FuzzIncrementalUpdates interprets the fuzz input as a sequence of
// SetProb / Insert / Delete / ApplyBatch operations on a small sharded chain
// store and asserts, after every commit, that each live view equals the full
// re-Prepare oracle to 1e-12 — including after tombstones, revivals,
// singleton-shard opens, component merges, fallback re-shards and net-zero
// churn batches that the delta pass short-circuits. After every commit a
// random lane batch through View.ProbabilityBatch must also equal the
// sharded plan prepared on Store.Snapshot (checkLanes). Three bytes drive
// one operation: opcode, argument, probability.
func FuzzIncrementalUpdates(f *testing.F) {
	f.Add([]byte{0, 3, 128, 2, 1, 200, 4, 5, 0, 3, 9, 64})
	f.Add([]byte{2, 0, 255, 2, 0, 10, 5, 0, 77, 1, 2, 30})
	f.Add([]byte{6, 1, 50, 6, 2, 60, 0, 0, 0, 4, 1, 1})
	f.Add([]byte{7, 2, 90, 2, 1, 40, 7, 2, 10, 2, 3, 200})
	f.Add([]byte{9, 2, 100, 0, 1, 30, 9, 0, 5, 6, 4, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStore(gen.RSTChain(3, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		v1, err := s.RegisterView(rel.HardQuery(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.RegisterView(rel.NewCQ(rel.NewAtom("R", rel.V("x"))), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v3, err := s.RegisterView(rel.NewCQ(rel.NewAtom("T", rel.V("x"))), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		views := []*View{v1, v2, v3}

		step := func(op, arg byte, pr float64) {
			switch op % 10 {
			case 0: // probability tweak
				id := int(arg) % s.Len()
				if s.Live(id) {
					if err := s.SetProb(id, pr); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // insert an S edge between adjacent chain elements
				i := int(arg) % 3
				f := rel.NewFact("S", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
				if _, err := s.Insert(f, pr); err != nil {
					t.Fatal(err)
				}
			case 2: // fresh constant (opens a singleton shard) or a link onto
				// the main component (merging shards: the re-shard path)
				var f rel.Fact
				if arg%2 == 0 {
					f = rel.NewFact("R", fmt.Sprintf("w%d", int(arg)%3))
				} else {
					f = rel.NewFact("S", fmt.Sprintf("w%d", int(arg)%3), fmt.Sprintf("v%d", int(arg)%4))
				}
				if _, err := s.Insert(f, pr); err != nil {
					t.Fatal(err)
				}
			case 3: // unary fact on an existing element
				f := rel.NewFact("T", fmt.Sprintf("v%d", int(arg)%4))
				if _, err := s.Insert(f, pr); err != nil {
					t.Fatal(err)
				}
			case 4: // delete
				id := int(arg) % s.Len()
				if s.Live(id) {
					if err := s.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			case 5: // revive / re-weight a known fact
				id := int(arg) % s.Len()
				fact, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Insert(fact, pr); err != nil {
					t.Fatal(err)
				}
			case 6: // a small batch mixing set, insert and delete
				us := []Update{{Op: OpInsert, Fact: rel.NewFact("T", fmt.Sprintf("v%d", int(arg)%4)), P: pr}}
				if id := int(arg+1) % s.Len(); s.Live(id) {
					us = append(us, Update{Op: OpSet, ID: id, P: 1 - pr})
				}
				if id := int(arg+2) % s.Len(); s.Live(id) {
					us = append(us, Update{Op: OpDelete, ID: id})
				}
				if err := s.ApplyBatch(us); err != nil {
					t.Fatal(err)
				}
			case 7: // same-key churn: delete+insert (or insert+delete) of one
				// fact inside a single batch
				id := int(arg) % s.Len()
				fact, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				var us []Update
				if s.Live(id) && arg%2 == 0 {
					us = []Update{{Op: OpDelete, ID: id}, {Op: OpInsert, Fact: fact, P: pr}}
				} else {
					us = []Update{{Op: OpInsert, Fact: fact, P: pr}, {Op: OpDelete, ID: id}}
				}
				if err := s.ApplyBatch(us); err != nil {
					t.Fatal(err)
				}
			case 8: // multi-spine batch: re-weight several facts in one commit,
				// so every view's dirty shards recompute in the single
				// shard-major sweep of commitLocked
				var us []Update
				for d := 0; d < 3; d++ {
					id := int(arg+byte(d)) % s.Len()
					if cur, err := s.Prob(id); err == nil && s.Live(id) && cur != pr {
						us = append(us, Update{Op: OpSet, ID: id, P: pr})
					}
				}
				before := s.Stats().NodesRecomputed
				if err := s.ApplyBatch(us); err != nil {
					t.Fatal(err)
				}
				if len(us) > 0 && s.Stats().NodesRecomputed == before && s.Stats().Rebuilds == 0 {
					t.Fatalf("batched set of %d facts recomputed no node tables", len(us))
				}
			case 9: // net-zero churn: tombstone + revive at the identical weight
				// in one batch — the delta pass recomputes the staged leaves,
				// finds every table unchanged, and short-circuits, so the view
				// probabilities must come out bit-identical, not just within
				// tolerance
				id := int(arg) % s.Len()
				if !s.Live(id) {
					return
				}
				cur, err := s.Prob(id)
				if err != nil {
					t.Fatal(err)
				}
				fact, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				before := make([]float64, len(views))
				for i, v := range views {
					before[i] = v.Probability()
				}
				if err := s.ApplyBatch([]Update{
					{Op: OpDelete, ID: id},
					{Op: OpInsert, Fact: fact, P: cur},
				}); err != nil {
					t.Fatal(err)
				}
				for i, v := range views {
					if got := v.Probability(); got != before[i] {
						t.Fatalf("net-zero churn moved view %d: %v -> %v", i, before[i], got)
					}
				}
			}
		}

		ops := 0
		for i := 0; i+2 < len(data) && ops < 20; i += 3 {
			step(data[i], data[i+1], float64(data[i+2])/255)
			ops++
			for vi, v := range views {
				want, err := s.Oracle(v.Query())
				if err != nil {
					t.Fatal(err)
				}
				if got := v.Probability(); math.Abs(got-want) > 1e-12 {
					t.Fatalf("op %d view %d: incremental %v, oracle %v", ops, vi, got, want)
				}
				r := rand.New(rand.NewSource(int64(i)<<8 | int64(data[i+1])))
				checkLanes(t, s, v, r, fmt.Sprintf("op %d view %d", ops, vi))
			}
		}
	})
}

// checkLanes is the differential oracle of the live lane pass: a random
// batch of override lanes through v.ProbabilityBatch must equal the
// sharded plan prepared on a snapshot of the store, lane by lane to 1e-12,
// at the same commit sequence. The batch mixes healthy lanes (random
// overrides, overrides to 0 and 1, lanes overriding nothing or restating a
// fact's current probability) with bad ones (an unknown id, a deleted id, a
// NaN or >1 probability), which must fail alone, NaN under a LaneErrors.
func checkLanes(t *testing.T, s *Store, v *View, r *rand.Rand, ctx string) {
	t.Helper()
	tid, ids, seq := s.Snapshot()
	snapIdx := make(map[int]int, len(ids))
	for i, id := range ids {
		snapIdx[id] = i
	}
	sp, base, err := core.PrepareShardedTID(tid, v.Query(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var deleted []int
	for id := 0; id < s.Len(); id++ {
		if !s.Live(id) {
			deleted = append(deleted, id)
		}
	}
	var lanes []map[int]float64
	var bad []bool
	var ps []logic.Prob
	for l := 0; l < 8; l++ {
		lane := map[int]float64{}
		isBad := false
		switch kind := r.Intn(8); {
		case kind == 0 && len(ids) > 0: // restate a current probability
			id := ids[r.Intn(len(ids))]
			lane[id], _ = s.Prob(id)
		case kind == 1: // an id the store never issued
			lane[s.Len()+r.Intn(3)] = 0.5
			isBad = true
		case kind == 2 && len(deleted) > 0: // a tombstoned id
			lane[deleted[r.Intn(len(deleted))]] = 0.5
			isBad = true
		case kind == 3 && len(ids) > 0: // a probability outside [0,1]
			lane[ids[r.Intn(len(ids))]] = []float64{math.NaN(), 1.5, -0.1}[r.Intn(3)]
			isBad = true
		case kind == 4: // overrides nothing
		default:
			for n := 1 + r.Intn(3); n > 0 && len(ids) > 0; n-- {
				lane[ids[r.Intn(len(ids))]] = []float64{0, 1, r.Float64()}[r.Intn(3)]
			}
		}
		lanes = append(lanes, lane)
		bad = append(bad, isBad)
		if !isBad {
			p := make(logic.Prob, len(base))
			for e, w := range base {
				p[e] = w
			}
			for id, w := range lane {
				p[tid.EventOf(snapIdx[id])] = w
			}
			ps = append(ps, p)
		}
	}
	want, err := sp.ProbabilityBatch(ps)
	if err != nil {
		t.Fatalf("%s: sharded reference: %v", ctx, err)
	}
	got, gotSeq, err := v.ProbabilityBatch(lanes)
	if gotSeq != seq {
		t.Fatalf("%s: lanes at seq %d, snapshot at %d", ctx, gotSeq, seq)
	}
	le, _ := err.(core.LaneErrors)
	if err != nil && le == nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	j := 0
	for l := range lanes {
		failed := le != nil && le.Failed(l)
		if bad[l] {
			if !failed || !math.IsNaN(got[l]) {
				t.Fatalf("%s lane %d (%v): got %v, err %v; want a failed NaN lane", ctx, l, lanes[l], got[l], err)
			}
			continue
		}
		if failed {
			t.Fatalf("%s lane %d (%v) failed: %v", ctx, l, lanes[l], le[l])
		}
		if math.Abs(got[l]-want[j]) > 1e-12 {
			t.Fatalf("%s lane %d (%v): live %v, snapshot plan %v", ctx, l, lanes[l], got[l], want[j])
		}
		j++
	}
}
