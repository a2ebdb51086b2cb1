// Package incr maintains live materialized views over prepared query plans:
// the incremental-maintenance layer of the serving stack.
//
// A core.Plan answers repeated probability requests fast, but it is
// immutable and describes a snapshot — answering after a change to the fact
// set from a plan alone means a full Prepare plus a full dynamic-programming
// pass. Following the shape of dynamic query evaluation (answering queries
// under updates by maintaining evaluation state), a Store keeps the per-node
// DP tables of each registered view materialized (core.Materialized) and
// maintains them under updates. A view owns what it changes: an in-place
// insert splices the view's private copy of its shard plan's structure,
// never the plan. Every shard plan carries exactly one view and every write
// happens under the store lock, which is all core asks of concurrent views.
//
// The store is sharded by connected component: facts whose constants never
// co-occur live in independent probability spaces, so each component gets
// its own sub-instance, and every view compiles one plan and materializes
// one table set per component (combined at commit time by the compiled fold
// of core.ShardCombiner). Updates route to the single owning shard:
//
//   - SetProb touches one event weight, which is applied at a single forget
//     node of the owning shard's nice decomposition, so only that shard's
//     root-path spine is recomputed: O(depth of the dirty shard) bag tables,
//     not O(instance).
//   - Insert routes to the shard owning the fact's constants: it is absorbed
//     in place when some bag of that shard covers the arguments (treedec
//     attach-point search), and a fact whose constants are all new opens a
//     fresh singleton shard — no other shard is touched either way. Only an
//     insert that spans shards (merging components) or defeats the attach
//     search falls back to one counted re-shard of every view.
//   - Delete tombstones the fact in its shard: the event weight drops to 0,
//     which is exactly the distribution without the fact, at dirty-spine
//     cost. Tombstones are compacted away by the next fallback rebuild.
//   - ApplyBatch stages a whole batch and commits once, so update spines
//     that overlap are recomputed a single time, and a batch containing any
//     non-absorbable insert costs one rebuild total.
//
// Readers (View.Probability, View.ProbabilityBatch, Stats) take a shared
// lock and may run concurrently with each other and between commits.
// Subscribe delivers the refreshed probabilities of every view after each
// commit; callbacks run after the commit's lock is released (so they may
// call back into the store), serialized in commit order.
package incr

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// Op selects the kind of an Update.
type Op uint8

const (
	// OpSet overwrites the probability of fact ID.
	OpSet Op = iota
	// OpInsert adds Fact with probability P (or revives/overwrites it if the
	// fact is already known).
	OpInsert
	// OpDelete tombstones fact ID.
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpSet:
		return "set"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}

// Update is one mutation of an update batch.
type Update struct {
	Op   Op
	ID   int      // fact id for OpSet / OpDelete
	Fact rel.Fact // inserted fact for OpInsert
	P    float64  // probability for OpSet / OpInsert
}

// Commit describes one applied commit to subscribers.
type Commit struct {
	// Seq numbers commits from 1, in order.
	Seq uint64
	// Probabilities holds the refreshed query probability of every
	// registered view, in registration order at commit time.
	Probabilities []float64
	// Views identifies the view behind each probability: Probabilities[i]
	// is Views[i]'s refreshed answer. Registration order can shift when
	// views are unregistered, so consumers that outlive a single commit
	// (e.g. network watch streams) should key on the view, not the index.
	Views []*View
	// Changed flags the views this commit actually moved: Changed[i] is
	// false when the delta pass proved Views[i]'s probability identical to
	// the previous commit's (every spine short-circuited before its root, or
	// no shard of the view was touched). Consumers streaming deltas forward
	// only the changed entries; the full Probabilities slice stays available
	// for full-state consumers.
	Changed []bool
	// RowsRecomputed and SpinesShortCircuited are this commit's delta-pass
	// work counters, summed over every (shard, view) table set: rows
	// actually recomputed, and recomputed tables that came out unchanged and
	// cut their spine short.
	RowsRecomputed       uint64
	SpinesShortCircuited uint64
}

// AnyChanged reports whether the commit moved at least one view.
func (c Commit) AnyChanged() bool {
	for _, ch := range c.Changed {
		if ch {
			return true
		}
	}
	return false
}

// CommitHook observes every commit at acknowledgement time: it is invoked
// under the store's write lock with the commit's sequence number and the
// updates that actually landed (for a partial batch, only the applied
// prefix — the rejected suffix never reaches the hook, so a write-ahead log
// records exactly what committed). The hook must be fast and must not call
// back into the store; it typically encodes and enqueues a log record. The
// returned wait function (nil when the hook has nothing to wait for) is
// invoked after the write lock is released and before the mutating call
// returns: the commit is acknowledged to the caller only once wait returns
// nil. A non-nil wait error fails the mutating call and marks the store
// broken — the in-memory state has advanced past what the hook accepted, so
// serving further commits would silently diverge from the durable history.
type CommitHook func(seq uint64, us []Update) (wait func() error)

// subscriber is one Subscribe registration: the callback plus the state that
// makes cancellation a barrier (see Subscribe).
type subscriber struct {
	fn        func(Commit)
	cancelled atomic.Bool
	// delivering holds the id of the goroutine currently running fn, 0 when
	// idle. Deliveries are serialized (notifyMu), so one slot suffices; it
	// lets a cancel from inside the callback itself recognize the
	// re-entrancy and skip waiting for its own return.
	delivering atomic.Int64
}

// notification is one commit queued for subscriber delivery: the commit and
// the subscriber snapshot taken while its lock was still held.
type notification struct {
	subs []*subscriber
	c    Commit
}

// goid returns the current goroutine's id (parsed from the runtime's stack
// header — there is no public accessor). Used only to detect a subscriber
// cancelling itself from inside its own callback.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// Stats counts the work the store has done, splitting the incremental paths
// from the re-Prepare fallbacks so the absorption rate is observable.
type Stats struct {
	Commits         uint64 // commits applied (one per mutating call)
	Updates         uint64 // individual updates inside those commits
	SetProbs        uint64
	Inserts         uint64
	Deletes         uint64
	Attached        uint64 // inserts absorbed in place by the owning shard
	NewShards       uint64 // inserts that opened a fresh singleton shard
	Rebuilds        uint64 // full re-shard fallbacks
	NodesRecomputed uint64 // DP tables recomputed incrementally, all views
	// RowsRecomputed counts the table rows those recomputations actually
	// touched (the delta pass recomputes only the rows a change feeds), and
	// SpinesShortCircuited the recomputed tables that came out unchanged and
	// stopped their spine's propagation early.
	RowsRecomputed       uint64
	SpinesShortCircuited uint64
	Tombstones           int // deleted facts still occupying plan events
	Shards               int // current connected-component shards
}

// Store is a mutable tuple-independent probabilistic database serving live
// materialized views, sharded by the connected components of its fact
// co-occurrence graph. Fact ids are stable handles: they survive deletes,
// revivals and the internal rebuilds that compact tombstones away.
type Store struct {
	mu      sync.RWMutex
	facts   []rel.Fact
	probs   []float64
	deleted []bool
	byKey   map[string]int // fact key -> id, live or tombstoned

	shards     []*pdb.CInstance // per-component sub-instances the shard plans are prepared on
	shardOf    []int            // id -> owning shard, -1 when compacted away
	cIdx       []int            // id -> fact index within its shard's instance, -1 when compacted away
	constShard map[string]int   // constant -> owning shard
	pm         logic.Prob       // event probabilities for every event of every shard

	views       []*View
	needRebuild bool // set while staging when some insert cannot be absorbed
	broken      error
	hook        CommitHook
	metrics     *Metrics // nil when the store runs unobserved

	subs      []*subscriber  // live subscriptions
	pending   []notification // commits awaiting subscriber delivery
	notifyMu  sync.Mutex     // serializes deliveries, preserving commit order
	deliverMu sync.Mutex     // guards deliverCond: cancel waits out in-flight callbacks
	deliver   *sync.Cond
	seq       uint64
	stats     Stats
}

// View is a live materialized view: one query kept continuously answered
// over the store's current facts and probabilities, as one plan plus one
// materialized table set per shard.
type View struct {
	store      *Store
	q          rel.CQ
	opts       core.Options
	combQ      core.Query          // instance-independent join/accept oracle for recombination
	comb       *core.ShardCombiner // compiled cross-shard fold over the shard views
	shards     []viewShard         // aligned with store.shards
	prob       float64             // combined probability, refreshed at every commit
	registered bool                // between RegisterView and UnregisterView
}

type viewShard struct {
	mat *core.Materialized
	// evIdx[ci] is the view's index of the event of shard fact ci: the
	// slice lookup that routes a lane override by store fact id.
	evIdx []int32
}

// NewStore builds a store over a snapshot of the TID instance t (later
// changes to t are not observed; the store is the mutable handle from here
// on). Probabilities are validated fact by fact.
func NewStore(t *pdb.TID) (*Store, error) {
	s := &Store{byKey: map[string]int{}}
	s.deliver = sync.NewCond(&s.deliverMu)
	for i := 0; i < t.NumFacts(); i++ {
		f := t.Fact(i)
		if err := pdb.ValidateProb(t.Prob(i)); err != nil {
			return nil, fmt.Errorf("incr: fact %s: %w", f, err)
		}
		if _, dup := s.byKey[f.Key()]; dup {
			return nil, fmt.Errorf("incr: duplicate fact %s", f)
		}
		s.byKey[f.Key()] = len(s.facts)
		s.facts = append(s.facts, f)
		s.probs = append(s.probs, t.Prob(i))
		s.deleted = append(s.deleted, false)
	}
	s.rebuildShards()
	return s, nil
}

// State is the full logical state of a Store: every fact ever issued an id
// (tombstones included, so ids keep their positions), the current
// probabilities, the deleted flags, and the commit sequence. It is what a
// durable snapshot must persist for a later NewStoreFromState to resume the
// exact update history — the live TID of Snapshot is not enough, because it
// drops tombstones and with them the id ↦ fact alignment that logged updates
// reference.
type State struct {
	Facts   []rel.Fact
	Probs   []float64
	Deleted []bool
	Seq     uint64
}

// State returns a deep snapshot of the store's logical state, read in one
// critical section. Derived structures (shards, plans, views, counters) are
// not part of the logical state: they are recomputed from it.
func (s *Store) State() State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return State{
		Facts:   append([]rel.Fact(nil), s.facts...),
		Probs:   append([]float64(nil), s.probs...),
		Deleted: append([]bool(nil), s.deleted...),
		Seq:     s.seq,
	}
}

// NewStoreFromState rebuilds a store from a State snapshot: fact ids, probs,
// tombstones and the commit sequence resume exactly where the snapshot was
// taken, so a write-ahead log tail recorded after it replays against the
// same ids. Tombstoned slots keep their positions but are compacted out of
// the shard plans (equivalent to a post-crash rebuild; an Insert revives
// them through the usual re-attach path). No views are registered — warm
// restart re-registers them after replay.
func NewStoreFromState(st State) (*Store, error) {
	if len(st.Probs) != len(st.Facts) || len(st.Deleted) != len(st.Facts) {
		return nil, fmt.Errorf("incr: state is inconsistent: %d facts, %d probs, %d deleted flags",
			len(st.Facts), len(st.Probs), len(st.Deleted))
	}
	s := &Store{byKey: map[string]int{}}
	s.deliver = sync.NewCond(&s.deliverMu)
	for i, f := range st.Facts {
		p := st.Probs[i]
		if st.Deleted[i] {
			p = 0 // a tombstone's weight is zero by construction
		} else if err := pdb.ValidateProb(p); err != nil {
			return nil, fmt.Errorf("incr: fact %s: %w", f, err)
		}
		if _, dup := s.byKey[f.Key()]; dup {
			return nil, fmt.Errorf("incr: duplicate fact %s", f)
		}
		s.byKey[f.Key()] = i
		s.facts = append(s.facts, f)
		s.probs = append(s.probs, p)
		s.deleted = append(s.deleted, st.Deleted[i])
	}
	s.seq = st.Seq
	s.rebuildShards()
	return s, nil
}

// SetCommitHook installs (or, with nil, removes) the store's commit hook.
// Install it before the store serves traffic: commits applied earlier were
// never offered to the hook and a log built from later ones alone replays
// against the wrong base state.
func (s *Store) SetCommitHook(h CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// eventOf names the private event of fact id; ids are stable, so the event
// name survives rebuilds (and matches pdb.TID.EventOf for the seed facts).
func (s *Store) eventOf(id int) logic.Event {
	return core.FactEvent(id)
}

// rebuildShards recomputes the connected-component partition of the live
// facts and rebuilds the per-shard instances and probability map, dropping
// tombstones. Two facts share a shard iff they are linked by a chain of
// co-occurring constants; facts with no arguments are their own components.
func (s *Store) rebuildShards() {
	// Union-find over the constants of the live facts (kept map-based and
	// iterative: unlike treedec.Components it needs no materialized graph or
	// dense vertex index, and the flat find loop is safe on arbitrarily long
	// constant chains).
	parent := map[string]string{}
	find := func(x string) string {
		r := x
		for {
			p, ok := parent[r]
			if !ok || p == r {
				break
			}
			r = p
		}
		for x != r { // path compression
			parent[x], x = r, parent[x]
		}
		parent[r] = r
		return r
	}
	for id, f := range s.facts {
		if s.deleted[id] {
			continue
		}
		for _, a := range f.Args[1:] {
			parent[find(a)] = find(f.Args[0])
		}
		if len(f.Args) > 0 {
			find(f.Args[0])
		}
	}

	s.shards = nil
	s.shardOf = make([]int, len(s.facts))
	s.cIdx = make([]int, len(s.facts))
	s.constShard = map[string]int{}
	s.pm = logic.Prob{}
	compShard := map[string]int{}
	for id, f := range s.facts {
		s.shardOf[id], s.cIdx[id] = -1, -1
		if s.deleted[id] {
			continue
		}
		var k int
		if len(f.Args) == 0 {
			k = len(s.shards)
			s.shards = append(s.shards, pdb.NewCInstance())
		} else if kk, ok := compShard[find(f.Args[0])]; ok {
			k = kk
		} else {
			k = len(s.shards)
			compShard[find(f.Args[0])] = k
			s.shards = append(s.shards, pdb.NewCInstance())
		}
		e := s.eventOf(id)
		s.cIdx[id] = s.shards[k].Add(f, logic.Var(e))
		s.shardOf[id] = k
		s.pm[e] = s.probs[id]
		for _, a := range f.Args {
			s.constShard[a] = k
		}
	}
	s.stats.Tombstones = 0
}

// RegisterView compiles one plan per shard for q over the store's current
// instance, materializes their DP tables, and keeps everything maintained
// under every later update. Options are honoured as in core.PrepareCQ,
// except that a pinned Joint decomposition is rejected (the live instance
// outgrows it) and EmitLineage is ignored (live views answer probabilities,
// not lineages).
func (s *Store) RegisterView(q rel.CQ, opts core.Options) (*View, error) {
	if opts.Joint != nil {
		return nil, fmt.Errorf("incr: a live view cannot pin a precomputed decomposition")
	}
	opts.EmitLineage = false
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return nil, s.broken
	}
	combQ, err := core.NewCQQuery(q)
	if err != nil {
		return nil, err
	}
	v := &View{store: s, q: q, opts: opts, combQ: combQ}
	if err := v.build(); err != nil {
		return nil, err
	}
	v.registered = true
	s.views = append(s.views, v)
	return v, nil
}

// build (re)compiles the view's shard plans on the store's current shard
// instances, materializes them, and refreshes the combined probability.
// Called under the store's write lock.
func (v *View) build() error {
	v.shards = make([]viewShard, len(v.store.shards))
	for k, c := range v.store.shards {
		pl, err := core.PrepareCQ(c, v.q, v.opts)
		if err != nil {
			return fmt.Errorf("incr: prepare %s shard %d: %w", v.q, k, err)
		}
		mat, err := pl.Materialize(v.store.pm)
		if err != nil {
			return fmt.Errorf("incr: materialize %s shard %d: %w", v.q, k, err)
		}
		v.shards[k] = viewShard{mat: mat}
	}
	for id, k := range v.store.shardOf {
		if k >= 0 {
			v.shards[k].setEvent(v.store.cIdx[id], v.store.eventOf(id))
		}
	}
	v.comb = nil // recombine compiles a fresh fold over the new shard set
	return v.recombine()
}

// setEvent records the view's event index of shard fact ci.
func (vs *viewShard) setEvent(ci int, e logic.Event) {
	for len(vs.evIdx) <= ci {
		vs.evIdx = append(vs.evIdx, -1)
	}
	vs.evIdx[ci] = int32(vs.mat.EventIndex(e))
}

// mats lists the view's per-shard materialized tables, in shard order.
func (v *View) mats() []*core.Materialized {
	ms := make([]*core.Materialized, len(v.shards))
	for i := range v.shards {
		ms[i] = v.shards[i].mat
	}
	return ms
}

// recombine folds the shard root tables into the view's combined
// probability through the compiled fold. Called under the store's write
// lock, after the dirty shards have committed — never earlier: the combiner
// compiles its fold from the shards' current root tables, which are only
// consistent with their structure generations post-commit (a combiner built
// while another shard held a staged-but-uncommitted attach would memorize
// stale root keys under the new generation and never recover).
func (v *View) recombine() error {
	if v.comb == nil {
		v.comb = core.NewShardCombiner(v.combQ, v.mats())
	}
	p, err := v.comb.Probability()
	if err != nil {
		return fmt.Errorf("incr: combine %s: %w", v.q, err)
	}
	v.prob = p
	return nil
}

// Probability returns the view's current query probability, as of the last
// commit. Safe for any number of concurrent callers, including while other
// goroutines commit.
func (v *View) Probability() float64 {
	p, _ := v.ProbabilitySeq()
	return p
}

// ProbabilitySeq returns the view's current query probability together with
// the commit sequence it reflects, read in one critical section — the form
// for consumers that label answers with their sequence (a query service
// reconciling responses against a commit-ordered watch stream).
func (v *View) ProbabilitySeq() (float64, uint64) {
	v.store.mu.RLock()
	defer v.store.mu.RUnlock()
	return v.prob, v.store.seq
}

// ErrUnregistered is returned by View.ProbabilityBatch on a view that is no
// longer registered: its tables stopped following the store's commits.
var ErrUnregistered = errors.New("incr: the view is no longer registered")

// NoFactError is the lane error of an override naming a fact id that is
// unknown or deleted.
type NoFactError struct{ ID int }

func (e *NoFactError) Error() string { return fmt.Sprintf("no live fact with id %d", e.ID) }

// ProbabilityBatch answers B = len(lanes) probability-override requests
// against the view's live tables. Lane l is the query probability when every
// fact id in lanes[l] takes the given probability and every other fact keeps
// its current one; the store itself is not changed. The lanes come back with
// the commit sequence they reflect, read in the same critical section.
//
// Lanes fail independently: an id naming no live fact (a *NoFactError) or a
// probability outside [0,1] fails only its lane, which comes back NaN under
// a core.LaneErrors while the other lanes keep their values.
//
// Only the shards a lane overrides are recomputed, and in them only the
// spines of the overridden events (core.ShardCombiner.ProbabilityBatch).
// The pass runs under the store's read lock: passes run concurrently with
// each other and with other readers, and a commit waits for the passes
// already running.
func (v *View) ProbabilityBatch(lanes []map[int]float64) ([]float64, uint64, error) {
	s := v.store
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.broken != nil {
		return nil, s.seq, s.broken
	}
	if !v.registered {
		return nil, s.seq, ErrUnregistered
	}
	var failed []error
	var ovs [][]core.LaneOverride // per shard; nil until some lane overrides a fact
	for l, lane := range lanes {
		if err := s.checkOverrides(lane); err != nil {
			if failed == nil {
				failed = make([]error, len(lanes))
			}
			failed[l] = err
			continue
		}
		for id, p := range lane {
			if ovs == nil {
				ovs = make([][]core.LaneOverride, len(v.shards))
			}
			k := s.shardOf[id]
			ovs[k] = append(ovs[k], core.LaneOverride{Lane: int32(l), Event: v.shards[k].evIdx[s.cIdx[id]], P: p})
		}
	}
	probs, err := v.comb.ProbabilityBatch(len(lanes), ovs, failed)
	return probs, s.seq, err
}

// checkOverrides validates one lane of ProbabilityBatch. Called under the
// store's read lock.
func (s *Store) checkOverrides(lane map[int]float64) error {
	for id, p := range lane {
		if id < 0 || id >= len(s.facts) || s.deleted[id] {
			return &NoFactError{ID: id}
		}
		if err := pdb.ValidateProb(p); err != nil {
			return fmt.Errorf("incr: fact id %d: %w", id, err)
		}
	}
	return nil
}

// Shape returns the aggregate structural statistics of the view's shard
// plans: total nice nodes, and the maximum width, bag size and depth across
// shards. Depth bounds the number of DP tables one probability update
// recomputes (the dirty shard's spine).
func (v *View) Shape() treedec.Stats {
	v.store.mu.RLock()
	defer v.store.mu.RUnlock()
	agg := treedec.Stats{Width: -1}
	for _, vs := range v.shards {
		sh := vs.mat.Shape()
		agg.Nodes += sh.Nodes
		if sh.Width > agg.Width {
			agg.Width = sh.Width
		}
		if sh.MaxBag > agg.MaxBag {
			agg.MaxBag = sh.MaxBag
		}
		if sh.Depth > agg.Depth {
			agg.Depth = sh.Depth
		}
	}
	return agg
}

// Shards returns the number of shard plans currently serving the view.
func (v *View) Shards() int {
	v.store.mu.RLock()
	defer v.store.mu.RUnlock()
	return len(v.shards)
}

// Query returns the view's conjunctive query.
func (v *View) Query() rel.CQ { return v.q }

// UnregisterView removes a previously registered view: it stops being
// maintained (and stops appearing in commit notifications) from the next
// commit on. Maintenance cost is proportional to the registered views, so
// long-lived servers evicting cold queries should unregister them. A view
// that is not (or no longer) registered is a no-op. The view's last
// Probability stays readable but keeps its final commit's value.
func (s *Store) UnregisterView(v *View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, other := range s.views {
		if other == v {
			s.views = append(s.views[:i], s.views[i+1:]...)
			v.registered = false
			return
		}
	}
}

// NumViews returns the number of currently registered views.
func (s *Store) NumViews() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.views)
}

// Seq returns the sequence number of the last applied commit (0 before the
// first commit). Matches the Seq delivered to subscribers.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Snapshot materializes the live facts as a fresh TID instance, returning
// alongside it the store id of every snapshot fact (ids[i] is the store id
// of snapshot fact i) and the commit sequence the snapshot was taken at —
// all read in one critical section, so the caller can cache the snapshot
// keyed by sequence without racing concurrent commits. The snapshot is
// detached: later store commits do not touch it. It is the bridge to plans
// prepared from scratch: Oracle and the differential tests compare the live
// views against them.
func (s *Store) Snapshot() (*pdb.TID, []int, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := pdb.NewTID()
	var ids []int
	for id, f := range s.facts {
		if !s.deleted[id] {
			t.Add(f, s.probs[id])
			ids = append(ids, id)
		}
	}
	return t, ids, s.seq
}

// Stats returns a snapshot of the store's work counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Shards = len(s.shards)
	return st
}

// Len returns the number of fact ids ever issued (live and tombstoned).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.facts)
}

// NumLive returns the number of live (non-tombstoned) facts — what a
// Snapshot would contain, and the right gauge for dashboards (Len never
// decreases because ids are stable).
func (s *Store) NumLive() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, d := range s.deleted {
		if !d {
			n++
		}
	}
	return n
}

// Fact returns the fact with the given id.
func (s *Store) Fact(id int) (rel.Fact, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || id >= len(s.facts) {
		return rel.Fact{}, fmt.Errorf("incr: no fact %d (have %d)", id, len(s.facts))
	}
	return s.facts[id], nil
}

// Prob returns the current probability of fact id (0 for tombstones).
func (s *Store) Prob(id int) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || id >= len(s.facts) {
		return 0, fmt.Errorf("incr: no fact %d (have %d)", id, len(s.facts))
	}
	return s.probs[id], nil
}

// Live reports whether fact id exists and is not tombstoned.
func (s *Store) Live(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return id >= 0 && id < len(s.facts) && !s.deleted[id]
}

// IDOf returns the id of the given fact, or -1 when it was never inserted.
func (s *Store) IDOf(f rel.Fact) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id, ok := s.byKey[f.Key()]; ok {
		return id
	}
	return -1
}

// ShardOf returns the shard currently owning fact id, or -1 when the fact is
// unknown or was compacted away. Shard indices are only stable between
// rebuilds; they exist for observability, not as handles.
func (s *Store) ShardOf(id int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || id >= len(s.shardOf) {
		return -1
	}
	return s.shardOf[id]
}

// Subscribe registers fn to be called after every commit with the commit
// sequence number and the refreshed probability of every view. Callbacks run
// after the commit's write lock has been released, serialized in commit
// order (and in registration order within a commit), so a subscriber may
// call back into the store — Prob, Live, View.Probability, even further
// updates — without deadlocking; reads observe the notified commit or a
// later one. A slow subscriber delays later notifications but never blocks
// readers.
//
// The returned cancel function unregisters fn and is a barrier: once cancel
// returns, fn will never be invoked again — a commit that snapshotted its
// subscribers before the cancellation skips the cancelled entry at delivery
// time, and a callback already executing on another goroutine is waited
// out. (Network consumers rely on this: a handler that cancels on
// disconnect may immediately free the resources its callback writes to.)
// The one re-entrant exception: fn cancelling its own subscription from
// inside a callback returns immediately — waiting there would deadlock on
// the delivery in progress — and likewise never fires again. cancel is
// idempotent and safe for concurrent use.
func (s *Store) Subscribe(fn func(Commit)) (cancel func()) {
	sub := &subscriber{fn: fn}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return func() {
		sub.cancelled.Store(true)
		s.mu.Lock()
		for i, other := range s.subs {
			if other == sub {
				s.subs = append(s.subs[:i], s.subs[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if sub.delivering.Load() == goid() {
			return // self-cancel from inside the callback being delivered
		}
		s.deliverMu.Lock()
		for sub.delivering.Load() != 0 {
			s.deliver.Wait()
		}
		s.deliverMu.Unlock()
	}
}

// flushNotifications delivers every queued commit notification outside the
// store lock. notifyMu serializes deliverers so subscribers see commits in
// order; it is acquired with TryLock so that a subscriber issuing a further
// update from inside its callback (whose commit re-enters here on the same
// goroutine) hands its notification to the already-running drain instead of
// deadlocking on the non-reentrant mutex. The post-unlock re-check closes
// the race where a notification is enqueued just as the drain winds down.
//
// Each delivery claims the subscriber (delivering = this goroutine's id)
// before re-checking cancellation, so it either observes a cancel that
// already happened and skips the callback, or a racing cancel observes the
// claim and blocks until the callback returns — the barrier Subscribe
// documents.
func (s *Store) flushNotifications() {
	gid := goid()
	for {
		if !s.notifyMu.TryLock() {
			return // the current holder's drain loop delivers our commit
		}
		for {
			s.mu.Lock()
			if len(s.pending) == 0 {
				s.mu.Unlock()
				break
			}
			n := s.pending[0]
			s.pending = s.pending[1:]
			s.mu.Unlock()
			for _, sub := range n.subs {
				if sub.cancelled.Load() {
					continue
				}
				sub.delivering.Store(gid)
				if !sub.cancelled.Load() {
					// notifyMu is the delivery-serialization lock, held here by
					// design (TryLock above makes re-entrant commits hand off
					// instead of deadlocking); s.mu is NOT held.
					sub.fn(n.c) //pdblint:allow lockcallback delivery runs under notifyMu by contract
				}
				s.deliverMu.Lock()
				sub.delivering.Store(0)
				s.deliver.Broadcast()
				s.deliverMu.Unlock()
			}
		}
		s.notifyMu.Unlock()
		s.mu.RLock()
		again := len(s.pending) > 0
		s.mu.RUnlock()
		if !again {
			return
		}
	}
}

// finishCommit runs the post-lock tail of every mutating call: wait out the
// commit hook's durability barrier (marking the store broken when it fails —
// the in-memory state is then ahead of the durable history), and deliver the
// queued subscriber notifications.
func (s *Store) finishCommit(wait func() error, err error) error {
	if wait != nil {
		if werr := wait(); werr != nil {
			s.mu.Lock()
			if s.broken == nil {
				s.broken = fmt.Errorf("incr: commit not durable, store unusable: %w", werr)
			}
			s.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("incr: commit not durable: %w", werr)
			}
		}
	}
	s.flushNotifications()
	return err
}

// SetProb overwrites the probability of fact id and refreshes every view
// along the dirty spine of the owning shard.
func (s *Store) SetProb(id int, p float64) error {
	s.mu.Lock()
	err := s.stageSet(id, p)
	var wait func() error
	if err == nil {
		wait, err = s.commitLocked([]Update{{Op: OpSet, ID: id, P: p}})
	}
	s.mu.Unlock()
	return s.finishCommit(wait, err)
}

// Insert adds a fact with the given probability and returns its stable id.
// A fact already known to the store (live or tombstoned) is revived or
// re-weighted in place in its owning shard. A genuinely new fact is absorbed
// into that shard when its decompositions can cover it, opens a fresh
// singleton shard when all its constants are new, and triggers one full
// re-shard of all views otherwise (e.g. when it merges two components).
func (s *Store) Insert(f rel.Fact, p float64) (int, error) {
	s.mu.Lock()
	id, err := s.stageInsert(f, p)
	var wait func() error
	if err == nil {
		wait, err = s.commitLocked([]Update{{Op: OpInsert, Fact: f, P: p}})
	}
	s.mu.Unlock()
	if err = s.finishCommit(wait, err); err != nil {
		return -1, err
	}
	return id, nil
}

// Delete tombstones fact id: its event weight drops to zero, which yields
// exactly the distribution without the fact, at the owning shard's
// dirty-spine cost. The slot is reclaimed by the next fallback rebuild; the
// id stays valid and can be revived by Insert.
func (s *Store) Delete(id int) error {
	s.mu.Lock()
	err := s.stageDelete(id)
	var wait func() error
	if err == nil {
		wait, err = s.commitLocked([]Update{{Op: OpDelete, ID: id}})
	}
	s.mu.Unlock()
	return s.finishCommit(wait, err)
}

// ApplyBatch applies the updates in order and commits them as one unit:
// overlapping dirty spines are recomputed once, and any number of
// non-absorbable inserts in the batch cost a single rebuild. On the first
// invalid update the batch stops, the already-staged prefix is committed,
// and the error is returned.
func (s *Store) ApplyBatch(us []Update) error {
	_, _, err := s.ApplyBatchN(us)
	return err
}

// ApplyBatchN is ApplyBatch reporting how many updates actually landed —
// len(us) on success, the length of the committed prefix when the batch
// stopped at an invalid update — together with the commit sequence as of
// this batch (read atomically with the commit, so concurrent committers
// cannot be misattributed). The form for callers that must report partial
// commits honestly (the /update endpoint).
func (s *Store) ApplyBatchN(us []Update) (applied int, seq uint64, err error) {
	s.mu.Lock()
	staged := 0
	var stageErr error
	for _, u := range us {
		switch u.Op {
		case OpSet:
			stageErr = s.stageSet(u.ID, u.P)
		case OpInsert:
			_, stageErr = s.stageInsert(u.Fact, u.P)
		case OpDelete:
			stageErr = s.stageDelete(u.ID)
		default:
			stageErr = fmt.Errorf("incr: unknown update op %d", u.Op)
		}
		if stageErr != nil {
			break
		}
		staged++
	}
	var commitErr error
	var wait func() error
	if staged > 0 || s.needRebuild {
		// Only the applied prefix is committed — and only it reaches the
		// commit hook, so a durability log never records the rejected suffix
		// (replaying the record reproduces exactly the partial batch the
		// caller was told about).
		wait, commitErr = s.commitLocked(us[:staged])
	}
	seq = s.seq
	s.mu.Unlock()
	if err := s.finishCommit(wait, commitErr); err != nil {
		return 0, seq, err
	}
	return staged, seq, stageErr
}

// CommitEmpty forces a commit that stages no updates: the sequence number
// advances (and any pending rebuild runs) exactly as for a batch whose every
// update was rejected after it forced a rebuild. It exists for log replay —
// a recovery that encounters an empty commit record must advance the store
// through the same sequence number it had pre-crash.
func (s *Store) CommitEmpty() error {
	s.mu.Lock()
	wait, err := s.commitLocked(nil)
	s.mu.Unlock()
	return s.finishCommit(wait, err)
}

// --- staging (write lock held) ---

func (s *Store) checkID(id int) error {
	if s.broken != nil {
		return s.broken
	}
	if id < 0 || id >= len(s.facts) {
		return fmt.Errorf("incr: no fact %d (have %d)", id, len(s.facts))
	}
	return nil
}

// stageWeight routes a new weight for fact id's event to its owning shard:
// every view stages the change on that shard's materialized tables only.
func (s *Store) stageWeight(id int, p float64) {
	e := s.eventOf(id)
	s.pm[e] = p
	if s.needRebuild {
		return // the pending rebuild reads s.pm
	}
	k := s.shardOf[id]
	if k < 0 {
		// Not represented in any shard (compacted tombstone): only a rebuild
		// can bring it back; stageInsert routes here after re-attaching.
		s.needRebuild = true
		return
	}
	for _, v := range s.views {
		if err := v.shards[k].mat.Stage(e, p); err != nil {
			// The staged state and the views disagree; recover by rebuild.
			s.needRebuild = true
			return
		}
	}
}

func (s *Store) stageSet(id int, p float64) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	if err := pdb.ValidateProb(p); err != nil {
		return fmt.Errorf("incr: fact %s: %w", s.facts[id], err)
	}
	if s.deleted[id] {
		return fmt.Errorf("incr: fact %s (id %d) is deleted; Insert revives it", s.facts[id], id)
	}
	s.probs[id] = p
	s.stats.SetProbs++
	s.stageWeight(id, p)
	return nil
}

func (s *Store) stageDelete(id int) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	if s.deleted[id] {
		return fmt.Errorf("incr: fact %s (id %d) is already deleted", s.facts[id], id)
	}
	s.deleted[id] = true
	s.probs[id] = 0
	s.stats.Deletes++
	s.stats.Tombstones++
	// A live fact is always present in its shard: tombstone it by dropping
	// its event weight to zero.
	s.stageWeight(id, 0)
	return nil
}

func (s *Store) stageInsert(f rel.Fact, p float64) (int, error) {
	if s.broken != nil {
		return -1, s.broken
	}
	if err := pdb.ValidateProb(p); err != nil {
		return -1, fmt.Errorf("incr: fact %s: %w", f, err)
	}
	s.stats.Inserts++
	if id, known := s.byKey[f.Key()]; known {
		if s.deleted[id] {
			s.deleted[id] = false
			s.stats.Tombstones--
		}
		s.probs[id] = p
		if s.cIdx[id] < 0 {
			// The tombstone was compacted away by a rebuild: the fact is
			// genuinely absent from the current plans — attach it afresh.
			return id, s.routeNewFact(id, f, p)
		}
		s.stageWeight(id, p)
		return id, nil
	}
	id := len(s.facts)
	s.byKey[f.Key()] = id
	s.facts = append(s.facts, f)
	s.probs = append(s.probs, p)
	s.deleted = append(s.deleted, false)
	s.shardOf = append(s.shardOf, -1)
	s.cIdx = append(s.cIdx, -1)
	return id, s.routeNewFact(id, f, p)
}

// routeNewFact places fact id — absent from every current plan — into the
// shard layout: absorbed in place by the single shard owning its constants,
// opened as a fresh singleton shard when every constant is new, or falling
// back to a full re-shard when the fact spans components (it merges them) or
// defeats the attach search. Called with the fact's store-side state already
// updated.
func (s *Store) routeNewFact(id int, f rel.Fact, p float64) error {
	e := s.eventOf(id)
	s.pm[e] = p
	if s.needRebuild {
		return nil
	}

	owner, fresh := -1, 0
	spans := false
	for _, a := range f.Args {
		k, known := s.constShard[a]
		switch {
		case !known:
			fresh++
		case owner < 0:
			owner = k
		case owner != k:
			spans = true
		}
	}
	switch {
	case owner < 0 && !spans:
		// Every constant is new (or the fact has none): a brand-new
		// component, served by a fresh singleton shard. No existing shard's
		// tables are touched.
		s.openShard(id, f)
	case owner >= 0 && !spans && fresh == 0:
		// All constants live in one shard: absorb in place there.
		s.attachToShard(owner, id, f, p)
	default:
		// The fact merges components, or mixes known and new constants:
		// re-shard everything at commit.
		s.needRebuild = true
	}
	return nil
}

// openShard creates a new singleton shard holding only fact id and compiles
// each view's plan for it (a one-fact Prepare). On any failure the store
// falls back to a rebuild.
func (s *Store) openShard(id int, f rel.Fact) {
	c := pdb.NewCInstance()
	ci := c.Add(f, logic.Var(s.eventOf(id)))
	k := len(s.shards)
	s.shards = append(s.shards, c)
	s.shardOf[id], s.cIdx[id] = k, ci
	for _, a := range f.Args {
		s.constShard[a] = k
	}
	for _, v := range s.views {
		pl, err := core.PrepareCQ(c, v.q, v.opts)
		var mat *core.Materialized
		if err == nil {
			mat, err = pl.Materialize(s.pm)
		}
		if err != nil {
			s.needRebuild = true
			return
		}
		vs := viewShard{mat: mat}
		vs.setEvent(ci, s.eventOf(id))
		v.shards = append(v.shards, vs)
		v.comb = nil // shard set changed; recombine compiles the new fold post-commit
	}
	s.stats.NewShards++
	if m := s.metrics; m != nil {
		m.RoutedNewShard.Inc()
	}
}

// attachToShard absorbs fact id into shard k in place when every view's
// shard can cover it, and schedules the fallback rebuild otherwise.
func (s *Store) attachToShard(k, id int, f rel.Fact, p float64) {
	for _, v := range s.views {
		if !v.shards[k].mat.CanAttach(f) {
			s.needRebuild = true
			return
		}
	}
	e := s.eventOf(id)
	ci := s.shards[k].Add(f, logic.Var(e))
	s.shardOf[id], s.cIdx[id] = k, ci
	for _, v := range s.views {
		vs := &v.shards[k]
		if err := vs.mat.StageAttach(f, e, p); err != nil {
			s.needRebuild = true
			return
		}
		vs.setEvent(ci, e)
	}
	if len(s.views) > 0 {
		s.stats.Attached++
		if m := s.metrics; m != nil {
			m.RoutedAttached.Inc()
		}
	}
}

// --- commit (write lock held) ---

// commitLocked applies everything staged since the last commit: one re-shard
// when some update could not be absorbed, the batched dirty-spine
// recomputation of each view's dirty shards otherwise. It then refreshes
// every view's combined probability, numbers the commit, offers the applied
// updates to the commit hook, and queues the subscriber notification
// (delivered by flushNotifications after the lock is released). The returned
// wait is the hook's durability barrier; the caller invokes it after
// releasing the lock, via finishCommit.
func (s *Store) commitLocked(us []Update) (wait func() error, err error) {
	if s.broken != nil {
		return nil, s.broken
	}
	t0 := time.Now()
	nodes0 := s.stats.NodesRecomputed
	rows0 := s.stats.RowsRecomputed
	cuts0 := s.stats.SpinesShortCircuited
	changed := make([]bool, len(s.views))
	if s.needRebuild {
		s.needRebuild = false
		s.rebuildShards()
		for i, v := range s.views {
			if err := v.build(); err != nil {
				// The store's data and its views have diverged and cannot be
				// reconciled; refuse further use rather than serve stale
				// answers.
				s.broken = fmt.Errorf("incr: rebuild failed, store unusable: %w", err)
				return nil, s.broken
			}
			// A rebuild recomputes every view from scratch; deltas are
			// unknowable, so every view counts as changed.
			changed[i] = true
		}
		s.stats.Rebuilds++
		if m := s.metrics; m != nil {
			m.Rebuilds.Inc()
		}
	} else {
		// Batched delta pass, shard-major: every view's tables for one shard
		// commit back-to-back — their spines walk the same decomposition of
		// the same sub-instance, so the shard's row layouts and kernel blocks
		// stay hot across views — with each table set propagating only its
		// changed rows and stopping at the first unchanged table. Only views
		// whose combined answer can have moved (a shard's root table changed,
		// or the shard set itself grew) then refold their shards; the rest
		// keep their probability without touching the combiner.
		for k := range s.shards {
			for i, v := range s.views {
				cs, err := v.shards[k].mat.CommitDelta()
				if err != nil {
					s.broken = fmt.Errorf("incr: commit failed, store unusable: %w", err)
					return nil, s.broken
				}
				s.stats.NodesRecomputed += uint64(cs.Nodes)
				s.stats.RowsRecomputed += uint64(cs.Rows)
				s.stats.SpinesShortCircuited += uint64(cs.ShortCircuits)
				if cs.Changed {
					changed[i] = true
				}
			}
		}
		for i, v := range s.views {
			if v.comb == nil {
				changed[i] = true // the shard set changed under the view
			} else if !changed[i] {
				continue // no shard root moved: the combined fold is current
			}
			if err := v.recombine(); err != nil {
				s.broken = fmt.Errorf("incr: commit failed, store unusable: %w", err)
				return nil, s.broken
			}
		}
	}
	s.seq++
	s.stats.Commits++
	s.stats.Updates += uint64(len(us))
	if m := s.metrics; m != nil {
		m.CommitSeconds.ObserveSince(t0)
		m.CommitUpdates.Observe(float64(len(us)))
		m.NodesRecomputed.Add(s.stats.NodesRecomputed - nodes0)
		m.RowsRecomputed.Add(s.stats.RowsRecomputed - rows0)
		m.SpinesShortCircuited.Add(s.stats.SpinesShortCircuited - cuts0)
		m.Commits.Inc()
	}
	if s.hook != nil {
		// CommitHook is documented to run under the store lock (it must see
		// the store exactly at the committed seq); hooks must not call back
		// into the store or block on subscriber-held resources.
		wait = s.hook(s.seq, us) //pdblint:allow lockcallback CommitHook runs under s.mu by documented contract
	}
	if len(s.subs) > 0 {
		snap := append([]*subscriber(nil), s.subs...)
		c := Commit{
			Seq:                  s.seq,
			Probabilities:        make([]float64, len(s.views)),
			Views:                append([]*View(nil), s.views...),
			Changed:              changed,
			RowsRecomputed:       s.stats.RowsRecomputed - rows0,
			SpinesShortCircuited: s.stats.SpinesShortCircuited - cuts0,
		}
		for i, v := range s.views {
			c.Probabilities[i] = v.prob
		}
		s.pending = append(s.pending, notification{subs: snap, c: c})
	}
	return wait, nil
}

// Oracle recomputes the view's probability from scratch — a fresh TID of the
// live facts, a fresh Prepare, one evaluation — bypassing every incremental
// structure. It is the ground truth the property and fuzz tests compare
// against, and a debugging aid; it does not touch the store's views.
func (s *Store) Oracle(q rel.CQ) (float64, error) {
	t, _, _ := s.Snapshot()
	pl, p, err := core.PrepareTID(t, q, core.Options{})
	if err != nil {
		return 0, err
	}
	return pl.Probability(p)
}
