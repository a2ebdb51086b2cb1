package incr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

const tol = 1e-12

// checkViews compares every view against the full re-Prepare oracle.
func checkViews(t *testing.T, s *Store, views []*View, ctx string) {
	t.Helper()
	for i, v := range views {
		want, err := s.Oracle(v.Query())
		if err != nil {
			t.Fatalf("%s: oracle view %d: %v", ctx, i, err)
		}
		if got := v.Probability(); math.Abs(got-want) > tol {
			t.Fatalf("%s: view %d: incremental %v, oracle %v (|Δ|=%.3g)", ctx, i, got, want, math.Abs(got-want))
		}
	}
}

// chainStore builds a store over an RST chain with two registered views.
func chainStore(t *testing.T, n int) (*Store, []*View) {
	t.Helper()
	s, err := NewStore(gen.RSTChain(n, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.RegisterView(rel.HardQuery(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.RegisterView(rel.NewCQ(
		rel.NewAtom("S", rel.V("x"), rel.V("y")),
		rel.NewAtom("T", rel.V("y")),
	), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, []*View{v1, v2}
}

func TestSetProbMatchesOracle(t *testing.T) {
	s, views := chainStore(t, 8)
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 30; step++ {
		id := r.Intn(s.Len())
		p := float64(r.Intn(11)) / 10
		if err := s.SetProb(id, p); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkViews(t, s, views, fmt.Sprintf("step %d", step))
	}
	st := s.Stats()
	if st.Rebuilds != 0 {
		t.Errorf("SetProb forced %d rebuilds", st.Rebuilds)
	}
	if st.NodesRecomputed == 0 {
		t.Error("no incremental recomputation recorded")
	}
}

// TestRandomUpdateSequences drives randomized SetProb / Insert / Delete
// sequences — the acceptance property: after every commit, every view equals
// the full re-Prepare oracle to 1e-12, including after fallbacks.
func TestRandomUpdateSequences(t *testing.T) {
	var attached, rebuilds, newShards uint64
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, views := chainStore(t, 4)
		for step := 0; step < 35; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch r.Intn(5) {
			case 0: // probability tweak on a live fact
				id := r.Intn(s.Len())
				if !s.Live(id) {
					continue
				}
				if err := s.SetProb(id, float64(r.Intn(11))/10); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			case 1: // insert: an existing edge, or a fresh constant (opens a shard)
				var f rel.Fact
				if r.Intn(3) == 0 {
					f = rel.NewFact("R", fmt.Sprintf("w%d", r.Intn(3)))
				} else {
					i := r.Intn(4)
					f = rel.NewFact("S", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
				}
				if _, err := s.Insert(f, float64(1+r.Intn(9))/10); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			case 2: // delete a random live fact
				id := r.Intn(s.Len())
				if s.Live(id) {
					if err := s.Delete(id); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
				}
			case 3: // revive or re-weight via Insert on a known fact
				id := r.Intn(s.Len())
				f, err := s.Fact(id)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if _, err := s.Insert(f, float64(r.Intn(11))/10); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			case 4: // cross-shard link (merges components: rebuild) or a
				// unary fact on a w constant (absorbed by its shard)
				var f rel.Fact
				if r.Intn(2) == 0 {
					f = rel.NewFact("S", fmt.Sprintf("w%d", r.Intn(3)), fmt.Sprintf("v%d", r.Intn(5)))
				} else {
					f = rel.NewFact("T", fmt.Sprintf("w%d", r.Intn(3)))
				}
				if _, err := s.Insert(f, float64(1+r.Intn(9))/10); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			}
			checkViews(t, s, views, ctx)
		}
		st := s.Stats()
		attached += st.Attached
		rebuilds += st.Rebuilds
		newShards += st.NewShards
	}
	// The sequences must exercise the in-place path, the singleton-shard
	// path, and the re-shard fallback.
	if attached == 0 {
		t.Error("no insert was absorbed in place")
	}
	if rebuilds == 0 {
		t.Error("no insert fell back to a rebuild")
	}
	if newShards == 0 {
		t.Error("no insert opened a fresh shard")
	}
}

func TestDeleteTombstoneAndRevival(t *testing.T) {
	s, views := chainStore(t, 5)
	id := s.IDOf(rel.NewFact("S", "v2", "v3"))
	if id < 0 {
		t.Fatal("chain fact missing")
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if s.Live(id) {
		t.Error("deleted fact still live")
	}
	checkViews(t, s, views, "after delete")
	if err := s.Delete(id); err == nil {
		t.Error("double delete accepted")
	}
	if err := s.SetProb(id, 0.4); err == nil {
		t.Error("SetProb on a tombstone accepted")
	}
	// Revival restores the fact at a new probability.
	f, _ := s.Fact(id)
	rid, err := s.Insert(f, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if rid != id {
		t.Errorf("revival changed the id: %d -> %d", id, rid)
	}
	if !s.Live(id) {
		t.Error("revived fact not live")
	}
	checkViews(t, s, views, "after revival")
	if st := s.Stats(); st.Rebuilds != 0 {
		t.Errorf("tombstone/revival forced %d rebuilds", st.Rebuilds)
	}

	// Revival after a compacting rebuild re-attaches the fact. A fact mixing
	// a known constant with a brand-new one cannot be absorbed or opened as
	// its own shard, so it forces the compacting re-shard.
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rel.NewFact("S", "v0", "brandnew"), 0.5); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rebuilds != 1 || st.Tombstones != 0 {
		t.Fatalf("stats after compacting rebuild: %+v", st)
	}
	if _, err := s.Insert(f, 0.3); err != nil {
		t.Fatal(err)
	}
	checkViews(t, s, views, "after post-compaction revival")
}

func TestApplyBatchAmortizesSpines(t *testing.T) {
	mk := func() (*Store, []*View, []int) {
		s, views := chainStore(t, 30)
		ids := []int{0, 15, 33, 51, 69, 87}
		return s, views, ids
	}
	batchS, batchViews, ids := mk()
	var us []Update
	for _, id := range ids {
		us = append(us, Update{Op: OpSet, ID: id, P: 0.15})
	}
	if err := batchS.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	checkViews(t, batchS, batchViews, "after batch")

	serialS, serialViews, _ := mk()
	for _, id := range ids {
		if err := serialS.SetProb(id, 0.15); err != nil {
			t.Fatal(err)
		}
	}
	checkViews(t, serialS, serialViews, "after serial updates")

	bs, ss := batchS.Stats(), serialS.Stats()
	if bs.Commits != 1 || ss.Commits != uint64(len(ids)) {
		t.Errorf("commits: batch %d, serial %d", bs.Commits, ss.Commits)
	}
	if bs.NodesRecomputed >= ss.NodesRecomputed {
		t.Errorf("batch recomputed %d nodes, serial %d: no amortization", bs.NodesRecomputed, ss.NodesRecomputed)
	}
	for i := range batchViews {
		if math.Abs(batchViews[i].Probability()-serialViews[i].Probability()) > tol {
			t.Errorf("view %d: batch %v, serial %v", i, batchViews[i].Probability(), serialViews[i].Probability())
		}
	}
}

func TestApplyBatchWithMixedOpsAndFallback(t *testing.T) {
	s, views := chainStore(t, 6)
	err := s.ApplyBatch([]Update{
		{Op: OpSet, ID: 0, P: 0.9},
		{Op: OpInsert, Fact: rel.NewFact("S", "v1", "v2"), P: 0.4},
		{Op: OpDelete, ID: 4},
		{Op: OpInsert, Fact: rel.NewFact("R", "fresh1"), P: 0.5},     // new constant: opens a shard
		{Op: OpInsert, Fact: rel.NewFact("T", "fresh1"), P: 0.6},     // absorbed by that shard
		{Op: OpInsert, Fact: rel.NewFact("S", "v5", "fresh2"), P: 1}, // spans components: one rebuild
		{Op: OpSet, ID: 2, P: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rebuilds != 1 {
		t.Errorf("batch with a component-merging insert used %d rebuilds, want 1", st.Rebuilds)
	}
	if st.NewShards != 1 {
		t.Errorf("batch opened %d shards, want 1", st.NewShards)
	}
	if st.Commits != 1 {
		t.Errorf("batch used %d commits", st.Commits)
	}
	checkViews(t, s, views, "after mixed batch")

	// An invalid update stops the batch, commits the prefix, and errors.
	if err := s.ApplyBatch([]Update{
		{Op: OpSet, ID: 1, P: 0.3},
		{Op: OpSet, ID: 9999, P: 0.3},
	}); err == nil {
		t.Error("batch with an invalid id did not error")
	}
	if p, _ := s.Prob(1); p != 0.3 {
		t.Errorf("valid prefix not applied: P = %v", p)
	}
	checkViews(t, s, views, "after failed batch")
}

func TestValidationErrors(t *testing.T) {
	s, _ := chainStore(t, 3)
	if err := s.SetProb(0, math.NaN()); err == nil {
		t.Error("SetProb accepted NaN")
	}
	if err := s.SetProb(0, 1.5); err == nil {
		t.Error("SetProb accepted 1.5")
	}
	if err := s.SetProb(-1, 0.5); err == nil {
		t.Error("SetProb accepted a negative id")
	}
	if _, err := s.Insert(rel.NewFact("R", "v0"), -0.5); err == nil {
		t.Error("Insert accepted -0.5")
	}
	if err := s.Delete(4242); err == nil {
		t.Error("Delete accepted an unknown id")
	}
	// Nothing committed: the views saw no update.
	if st := s.Stats(); st.Commits != 0 {
		t.Errorf("invalid updates committed: %+v", st)
	}
}

func TestSubscribe(t *testing.T) {
	s, views := chainStore(t, 4)
	var got []Commit
	cancel := s.Subscribe(func(c Commit) { got = append(got, c) })
	if err := s.SetProb(0, 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rel.NewFact("R", "other"), 0.5); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("commits = %+v", got)
	}
	for i, v := range views {
		if math.Abs(got[1].Probabilities[i]-v.Probability()) > tol {
			t.Errorf("subscriber view %d: %v vs %v", i, got[1].Probabilities[i], v.Probability())
		}
	}
	cancel()
	if err := s.SetProb(0, 0.8); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Error("cancelled subscriber still notified")
	}
}

func TestRegisterViewRejectsPinnedDecomposition(t *testing.T) {
	s, _ := chainStore(t, 3)
	g := gen.RSTChain(3, 0.5).Inst.GaifmanGraph(nil)
	joint := treedec.Decompose(g, treedec.MinDegree)
	if _, err := s.RegisterView(rel.HardQuery(), core.Options{Joint: joint}); err == nil {
		t.Error("pinned decomposition accepted")
	}
}

// TestConcurrentReadersDuringCommits runs probability readers against a
// committing writer; under -race this is the memory-safety check for the
// single-writer/shared-reader contract.
func TestConcurrentReadersDuringCommits(t *testing.T) {
	s, views := chainStore(t, 12)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range views {
					p := v.Probability()
					if p < 0 || p > 1 {
						t.Errorf("probability %v out of range", p)
						return
					}
					_ = v.Shape()
				}
				_ = s.Stats()
			}
		}()
	}
	r := rand.New(rand.NewSource(7))
	for step := 0; step < 150; step++ {
		switch r.Intn(3) {
		case 0:
			if err := s.SetProb(r.Intn(s.Len()), r.Float64()); err != nil {
				t.Error(err)
			}
		case 1:
			i := r.Intn(12)
			f := rel.NewFact("S", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
			if _, err := s.Insert(f, r.Float64()); err != nil {
				t.Error(err)
			}
		case 2:
			if _, err := s.Insert(rel.NewFact("R", fmt.Sprintf("x%d", r.Intn(4))), r.Float64()); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkViews(t, s, views, "after concurrent run")
}

// TestShardRoutingAndLocality checks the tentpole property of the sharded
// store: disjoint components get independent shards, an update dirties only
// its owning shard's spine, and cross-shard combination is exact — including
// for a disconnected query whose matches span shards.
func TestShardRoutingAndLocality(t *testing.T) {
	const chains, n = 4, 6
	s, err := NewStore(gen.RSTChains(chains, n, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	vHard, err := s.RegisterView(rel.HardQuery(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A disconnected query: R and T may come from different components, so
	// a per-shard product of probabilities would be wrong; only the root
	// join combine answers it exactly.
	qCross := rel.NewCQ(rel.NewAtom("R", rel.V("x")), rel.NewAtom("T", rel.V("y")))
	vCross, err := s.RegisterView(qCross, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	views := []*View{vHard, vCross}
	if st := s.Stats(); st.Shards != chains {
		t.Fatalf("store split into %d shards, want %d", st.Shards, chains)
	}
	if got := vHard.Shards(); got != chains {
		t.Fatalf("view serves %d shards, want %d", got, chains)
	}
	checkViews(t, s, views, "initial")

	// A single SetProb recomputes at most (depth+1) tables per view — the
	// dirty shard's spine — no matter how many shards the store holds.
	sh := vHard.Shape()
	for step := 0; step < 8; step++ {
		before := s.Stats().NodesRecomputed
		id := (step * 29) % s.Len()
		if err := s.SetProb(id, 0.3+0.05*float64(step)); err != nil {
			t.Fatal(err)
		}
		recomputed := int(s.Stats().NodesRecomputed - before)
		if limit := (sh.Depth + 1) * len(views); recomputed > limit {
			t.Fatalf("step %d: SetProb recomputed %d tables, dirty-shard bound is %d", step, recomputed, limit)
		}
		checkViews(t, s, views, fmt.Sprintf("set step %d", step))
	}

	// Inserts route to the owning shard; a cross-chain link merges two
	// components via one rebuild and the shard count drops.
	if _, err := s.Insert(rel.NewFact("T", "g2v3"), 0.7); err != nil {
		t.Fatal(err)
	}
	checkViews(t, s, views, "after routed insert")
	if st := s.Stats(); st.Rebuilds != 0 {
		t.Fatalf("routed insert caused %d rebuilds", st.Rebuilds)
	}
	if _, err := s.Insert(rel.NewFact("S", "g0v1", "g1v1"), 0.5); err != nil {
		t.Fatal(err)
	}
	checkViews(t, s, views, "after merging insert")
	st := s.Stats()
	if st.Rebuilds != 1 {
		t.Fatalf("merging insert used %d rebuilds, want 1", st.Rebuilds)
	}
	if st.Shards != chains-1 {
		t.Fatalf("after merge the store holds %d shards, want %d", st.Shards, chains-1)
	}
}

// TestSubscribeReentrant is the regression test for the callback-under-lock
// bug: subscribers used to run while the commit held the store's write lock,
// so any callback that re-entered the store deadlocked. Callbacks now run
// after unlock and may freely read the store — and even commit further
// updates, which are delivered in order.
func TestSubscribeReentrant(t *testing.T) {
	s, views := chainStore(t, 4)
	var seqs []uint64
	var probs []float64
	nested := false
	cancel := s.Subscribe(func(c Commit) {
		// Re-entrant reads: every one of these blocked forever before the fix.
		if p, err := s.Prob(0); err != nil || p < 0 {
			t.Errorf("re-entrant Prob: %v %v", p, err)
		}
		if !s.Live(0) {
			t.Error("re-entrant Live went false")
		}
		_ = s.Stats()
		probs = append(probs, views[0].Probability())
		seqs = append(seqs, c.Seq)
		// A subscriber may even commit a further update from its callback;
		// the nested commit's notification is delivered after this one.
		if !nested {
			nested = true
			if err := s.SetProb(1, 0.9); err != nil {
				t.Errorf("re-entrant SetProb: %v", err)
			}
		}
	})
	defer cancel()
	if err := s.SetProb(0, 0.25); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("delivered commits %v, want [1 2] in order", seqs)
	}
	if probs[1] != views[0].Probability() {
		t.Errorf("second delivery saw a stale probability")
	}
	checkViews(t, s, views, "after re-entrant subscriber")
}

// TestSameKeyChurnBatches drives Delete(k)→Insert(k) and Insert(k)→Delete(k)
// pairs of the same fact through single batches — including across a
// tombstone-compacting rebuild — and asserts every view equals the full
// re-Prepare oracle after each commit.
func TestSameKeyChurnBatches(t *testing.T) {
	s, views := chainStore(t, 3)
	id := s.IDOf(rel.NewFact("S", "v1", "v2"))
	f, err := s.Fact(id)
	if err != nil {
		t.Fatal(err)
	}

	// delete → insert in one batch: the fact survives at the new weight.
	if err := s.ApplyBatch([]Update{{Op: OpDelete, ID: id}, {Op: OpInsert, Fact: f, P: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if !s.Live(id) {
		t.Fatal("delete→insert left the fact dead")
	}
	if p, _ := s.Prob(id); p != 0.9 {
		t.Fatalf("delete→insert weight %v, want 0.9", p)
	}
	if st := s.Stats(); st.Tombstones != 0 {
		t.Fatalf("delete→insert left %d tombstones", st.Tombstones)
	}
	checkViews(t, s, views, "after delete→insert")

	// insert → delete in one batch: ends tombstoned.
	if err := s.ApplyBatch([]Update{{Op: OpInsert, Fact: f, P: 0.4}, {Op: OpDelete, ID: id}}); err != nil {
		t.Fatal(err)
	}
	if s.Live(id) {
		t.Fatal("insert→delete left the fact live")
	}
	checkViews(t, s, views, "after insert→delete")

	// Compact the tombstone with a re-shard, then churn the same key again:
	// the insert re-attaches the compacted fact, the delete tombstones the
	// fresh attachment, the final insert revives it.
	if _, err := s.Insert(rel.NewFact("S", "v0", "zzz"), 0.5); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rebuilds != 1 || st.Tombstones != 0 {
		t.Fatalf("stats after compacting rebuild: %+v", st)
	}
	if err := s.ApplyBatch([]Update{
		{Op: OpInsert, Fact: f, P: 0.7},
		{Op: OpDelete, ID: id},
		{Op: OpInsert, Fact: f, P: 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Live(id) {
		t.Fatal("churn across compaction left the fact dead")
	}
	if p, _ := s.Prob(id); p != 0.2 {
		t.Fatalf("churn weight %v, want 0.2", p)
	}
	checkViews(t, s, views, "after churn across compaction")

	// Randomized property: same-key pairs in both orders, any starting state.
	r := rand.New(rand.NewSource(5))
	for step := 0; step < 25; step++ {
		id := r.Intn(s.Len())
		f, err := s.Fact(id)
		if err != nil {
			t.Fatal(err)
		}
		pr := float64(1+r.Intn(9)) / 10
		var us []Update
		if s.Live(id) && r.Intn(2) == 0 {
			us = []Update{{Op: OpDelete, ID: id}, {Op: OpInsert, Fact: f, P: pr}}
		} else {
			us = []Update{{Op: OpInsert, Fact: f, P: pr}, {Op: OpDelete, ID: id}}
		}
		if err := s.ApplyBatch(us); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkViews(t, s, views, fmt.Sprintf("churn step %d", step))
	}
}

// TestBatchAttachThenOpenShard is the regression test for a combiner-staleness
// bug: a single batch that first attaches a fact to an existing shard
// (changing that shard's root state sets) and then opens a fresh singleton
// shard used to compile the new cross-shard fold from the stale pre-attach
// tables, poisoning the store with a mass-drift error at commit.
func TestBatchAttachThenOpenShard(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.5, "R", "a")
	tid.AddFact(0.8, "S", "a", "b")
	s, err := NewStore(tid)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.RegisterView(rel.HardQuery(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.ApplyBatch([]Update{
		{Op: OpInsert, Fact: rel.NewFact("T", "b"), P: 0.9},  // attaches: completes a match
		{Op: OpInsert, Fact: rel.NewFact("R", "zz"), P: 0.4}, // opens a singleton shard
	})
	if err != nil {
		t.Fatalf("legal batch broke the store: %v", err)
	}
	checkViews(t, s, []*View{v}, "after attach+open batch")
	if st := s.Stats(); st.Attached != 1 || st.NewShards != 1 || st.Rebuilds != 0 {
		t.Errorf("stats = %+v, want 1 attach, 1 new shard, 0 rebuilds", st)
	}
	// The reverse order in one batch must hold too.
	err = s.ApplyBatch([]Update{
		{Op: OpInsert, Fact: rel.NewFact("T", "zz"), P: 0.3}, // attaches to the singleton shard
		{Op: OpInsert, Fact: rel.NewFact("S", "a", "c"), P: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkViews(t, s, []*View{v}, "after second batch")
}

// TestSubscribeCancelBarrier: once cancel() returns, the callback must never
// run again — even when a commit snapshotted its subscribers before the
// cancellation, and even when the callback is mid-flight on another
// goroutine when cancel is called. Run under -race in CI.
func TestSubscribeCancelBarrier(t *testing.T) {
	s, _ := chainStore(t, 4)
	for round := 0; round < 20; round++ {
		var dead atomic.Bool // set by the canceller after cancel returns
		started := make(chan struct{}, 64)
		var fired atomic.Int64
		cancel := s.Subscribe(func(c Commit) {
			select {
			case started <- struct{}{}:
			default:
			}
			if dead.Load() {
				t.Error("callback invoked after cancel returned")
			}
			fired.Add(1)
		})

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := s.SetProb(i%s.Len(), float64(i%10+1)/10); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-started // let at least one delivery race with the cancel
			cancel()
			dead.Store(true)
		}()
		wg.Wait()
		// Post-cancel commits must not reach the callback either.
		before := fired.Load()
		if err := s.SetProb(0, 0.42); err != nil {
			t.Fatal(err)
		}
		if fired.Load() != before {
			t.Fatal("cancelled subscriber still notified by a later commit")
		}
	}
}

// TestSubscribeSelfCancel: a callback cancelling its own subscription does
// not deadlock, and the subscription never fires again.
func TestSubscribeSelfCancel(t *testing.T) {
	s, _ := chainStore(t, 4)
	var calls int
	var cancel func()
	cancel = s.Subscribe(func(c Commit) {
		calls++
		cancel()
	})
	if err := s.SetProb(0, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProb(1, 0.6); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1 (self-cancelled)", calls)
	}
}

// TestSubscribeCancelIdempotent: double cancel and cancel-after-commit are
// safe; concurrent cancels of distinct subscribers don't interfere.
func TestSubscribeCancelIdempotent(t *testing.T) {
	s, _ := chainStore(t, 4)
	var aCalls, bCalls int
	cancelA := s.Subscribe(func(Commit) { aCalls++ })
	cancelB := s.Subscribe(func(Commit) { bCalls++ })
	if err := s.SetProb(0, 0.2); err != nil {
		t.Fatal(err)
	}
	cancelA()
	cancelA()
	if err := s.SetProb(1, 0.8); err != nil {
		t.Fatal(err)
	}
	cancelB()
	if aCalls != 1 || bCalls != 2 {
		t.Fatalf("calls = %d/%d, want 1/2", aCalls, bCalls)
	}
}

// TestCommitCarriesViews: notifications identify the view behind each
// probability, surviving unregistration-induced index shifts.
func TestCommitCarriesViews(t *testing.T) {
	s, views := chainStore(t, 4)
	var last Commit
	cancel := s.Subscribe(func(c Commit) { last = c })
	defer cancel()
	if err := s.SetProb(0, 0.25); err != nil {
		t.Fatal(err)
	}
	if len(last.Views) != 2 || last.Views[0] != views[0] || last.Views[1] != views[1] {
		t.Fatalf("commit views %v do not match registration", last.Views)
	}
	s.UnregisterView(views[0])
	if s.NumViews() != 1 {
		t.Fatalf("NumViews = %d after unregister, want 1", s.NumViews())
	}
	if err := s.SetProb(1, 0.75); err != nil {
		t.Fatal(err)
	}
	if len(last.Views) != 1 || last.Views[0] != views[1] {
		t.Fatalf("commit views after unregister = %v, want just the second view", last.Views)
	}
	want, err := s.Oracle(views[1].Query())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Probabilities[0]-want) > tol {
		t.Fatalf("surviving view probability %v, oracle %v", last.Probabilities[0], want)
	}
	// Unregistering twice (or an unknown view) is a no-op.
	s.UnregisterView(views[0])
}

// TestSnapshotDetached: Snapshot returns the live facts with stable ids and
// is unaffected by later commits.
func TestSnapshotDetached(t *testing.T) {
	s, views := chainStore(t, 4)
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	tid, ids, snapSeq := s.Snapshot()
	if snapSeq != s.Seq() {
		t.Fatalf("snapshot seq %d, store %d", snapSeq, s.Seq())
	}
	if tid.NumFacts() != s.Len()-1 || len(ids) != tid.NumFacts() {
		t.Fatalf("snapshot has %d facts (ids %d), want %d", tid.NumFacts(), len(ids), s.Len()-1)
	}
	for i, id := range ids {
		f, err := s.Fact(id)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(tid.Fact(i)) {
			t.Fatalf("snapshot fact %d = %s, store id %d = %s", i, tid.Fact(i), id, f)
		}
		if id == 0 {
			t.Fatal("tombstoned fact id 0 leaked into the snapshot")
		}
	}
	seqBefore := s.Seq()
	// A plan over the snapshot answers like the live view did at
	// snapshot time, regardless of later commits.
	pl, p, err := core.PrepareShardedTID(tid, views[0].Query(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	atSnap := views[0].Probability()
	if err := s.SetProb(1, 0.9); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != seqBefore+1 {
		t.Fatalf("Seq = %d, want %d", s.Seq(), seqBefore+1)
	}
	got, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-atSnap) > tol {
		t.Fatalf("snapshot plan drifted with the store: %v vs %v", got, atSnap)
	}
}

// TestDeltaShortCircuitAndStats: a batch that nets out to nothing — a fact
// tombstoned and revived at its committed weight in one commit — recomputes
// the staged leaves but propagates no change: every view's Commit.Changed is
// false, the probabilities are bit-identical (the persisted tables were never
// swapped), and the delta counters record the cut spines. A genuine change
// afterwards flips Changed back on.
func TestDeltaShortCircuitAndStats(t *testing.T) {
	s, views := chainStore(t, 12)
	var last Commit
	cancel := s.Subscribe(func(c Commit) { last = c })
	defer cancel()

	before := make([]float64, len(views))
	for i, v := range views {
		before[i] = v.Probability()
	}
	id := 4
	cur, err := s.Prob(id)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Fact(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Update{{Op: OpDelete, ID: id}, {Op: OpInsert, Fact: f, P: cur}}); err != nil {
		t.Fatal(err)
	}
	if last.AnyChanged() {
		t.Fatalf("net-zero churn reported changed views: %v", last.Changed)
	}
	if len(last.Changed) != len(views) {
		t.Fatalf("Commit.Changed has %d entries for %d views", len(last.Changed), len(views))
	}
	if last.RowsRecomputed == 0 {
		t.Fatal("churn commit recomputed no rows (the delta pass did not run)")
	}
	if last.SpinesShortCircuited == 0 {
		t.Fatal("unchanged tables did not cut any spine")
	}
	for i, v := range views {
		if got := v.Probability(); got != before[i] {
			t.Fatalf("view %d moved on a no-op commit: %v -> %v", i, before[i], got)
		}
	}
	st := s.Stats()
	if st.RowsRecomputed == 0 || st.SpinesShortCircuited == 0 {
		t.Fatalf("cumulative delta stats did not move: %+v", st)
	}
	if !s.Live(id) {
		t.Fatal("revival did not land")
	}

	// A real change propagates: Changed flips on for the touched views and
	// the results still match the oracle.
	nv := 0.9
	if cur == nv {
		nv = 0.3
	}
	if err := s.SetProb(id, nv); err != nil {
		t.Fatal(err)
	}
	if !last.AnyChanged() {
		t.Fatal("genuine probability change reported no changed views")
	}
	checkViews(t, s, views, "after churn then change")
}

// TestDeltaMultiViewBatchesMatchOracle drives shard-major batches (several
// spines per view per commit) through stores carrying three overlapping
// views and cross-checks every commit against the re-Prepare oracle,
// while verifying the per-commit delta payload is internally consistent:
// Changed[i] false implies that view's probability is bit-identical to its
// value before the commit.
func TestDeltaMultiViewBatchesMatchOracle(t *testing.T) {
	s, views := chainStore(t, 10)
	v3, err := s.RegisterView(rel.NewCQ(rel.NewAtom("R", rel.V("x"))), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	views = append(views, v3)
	prev := make([]float64, len(views))
	for i, v := range views {
		prev[i] = v.Probability()
	}
	var last Commit
	cancel := s.Subscribe(func(c Commit) { last = c })
	defer cancel()

	r := rand.New(rand.NewSource(17))
	for step := 0; step < 30; step++ {
		var us []Update
		for k := 0; k < 1+r.Intn(4); k++ {
			id := r.Intn(s.Len())
			if !s.Live(id) {
				continue
			}
			if r.Intn(5) == 0 {
				// occasional net-zero pair to exercise short-circuits mid-batch
				cur, err := s.Prob(id)
				if err != nil {
					t.Fatal(err)
				}
				f, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				us = append(us, Update{Op: OpDelete, ID: id}, Update{Op: OpInsert, Fact: f, P: cur})
			} else {
				us = append(us, Update{Op: OpSet, ID: id, P: float64(r.Intn(11)) / 10})
			}
		}
		if len(us) == 0 {
			continue
		}
		if err := s.ApplyBatch(us); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkViews(t, s, views, fmt.Sprintf("delta batch step %d", step))
		for i, v := range views {
			got := v.Probability()
			if i < len(last.Changed) && !last.Changed[i] && got != prev[i] {
				t.Fatalf("step %d view %d: Changed=false but probability moved %v -> %v", step, i, prev[i], got)
			}
			prev[i] = got
		}
	}
	if st := s.Stats(); st.SpinesShortCircuited == 0 {
		t.Fatalf("no spine was ever short-circuited across churn batches: %+v", st)
	}
}
