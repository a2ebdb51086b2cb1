package core

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// Materialized is a live evaluation of a compiled plan: where the one-shot
// eval discards each node's row table as soon as its parent is built, a
// Materialized view persists every table. A change to one event's probability
// then only invalidates the forget node that applies that event's Bernoulli
// weight — every other node's table is independent of it — so refreshing the
// query probability recomputes just the dirty root-path spine: O(depth) bag
// tables instead of a full bottom-up pass. This is the evaluation-state
// materialization behind internal/incr's live views (the production shape of
// dynamic query evaluation: maintain, don't recompute).
//
// Tables are dense: each node persists its row layout (layouts[t], the
// probability-independent row keys) and a flat value vector (vals[t]),
// recomputed through the node's compiled row program (progs[t], see
// rowprog.go) — so a spine recompute is pure kernel arithmetic over
// contiguous memory, with no map traffic. Programs compile lazily on first
// use and survive until a structure splice invalidates them.
//
// Updates are staged (Stage, StageAttach) and applied by Commit/CommitDelta,
// which propagate *changes* in a single bottom-up sweep: a staged node is
// recomputed in full and diffed against its persisted table, and from there
// on each ancestor recomputes only the rows its child's changed rows feed
// (the compiled edge lists make the affected-row indexing free). Propagation
// stops at the first node whose recomputed table comes out identical — the
// short-circuit that makes low-impact updates and churny batches (set then
// set back, delete then revive) cost a truncated spine instead of a full
// root path. A batch of updates still pays for each dirty node at most once
// no matter how many updates touched it.
//
// The diff is exact (==, not epsilon): an ancestor's recomputed rows
// accumulate their contributions in the same program order as a full
// recompute, so a delta pass is bit-identical to recomputing every table
// from scratch and the comparison never confuses float noise for change.
//
// A Materialized view is single-writer: it must be confined to one goroutine
// (or externally locked, as incr.Store does). It never writes to its plan,
// which may serve any number of concurrent evaluations and other views
// meanwhile. The view reads the plan's structure and automaton until its
// first StageAttach, which gives it private copies that every later attach
// splices; other views of the plan are unaffected. Two views of one plan
// must not attach at the same moment (see Plan).
type Materialized struct {
	pl *Plan
	st *structure // the plan's until the first attach, then the view's own
	au *automaton // likewise
	// owned reports whether st and au are the view's private copies.
	owned bool
	// attach is the attach-point index of st.nice, built by the first
	// findAttach that needs it and dropped by splice, so an insert's
	// CanAttach pre-flight and StageAttach share one build.
	attach *treedec.AttachIndex

	pe        []float64   // current per-event weights
	layouts   [][]rowKey  // persisted per-node row layouts
	vals      [][]float64 // persisted per-node row values, same order
	progs     []*nodeProg // lazily compiled per-node row programs
	deltas    []*deltaIdx // per-node delta adjacency of progs, built on first partial recompute
	dirty     []uint8     // per-node sweep flag: dirtyNone/dirtyDelta/dirtyFull
	anyDirty  bool
	prob      float64
	recomp    int    // cumulative node recomputations, for cost accounting
	structGen uint64 // bumped by every attach; a ShardCombiner recompiles on it
	commitGen uint64 // bumped by every Commit that changed the root table;
	// lets a ShardCombiner skip shards whose tables are unchanged

	// Delta-pass state: per-node changed-row sets, valid for one CommitDelta
	// generation, plus the reusable scratch the pass runs in.
	changedRows [][]int32 // rows of node t whose value changed this pass
	changedGen  []uint64  // deltaGen changedRows[t] belongs to
	deltaGen    uint64    // bumped once per CommitDelta
	valScratch  []float64 // full-recompute target, swapped with the table on change
	oldScratch  []float64 // saved pre-values of the affected rows of a partial recompute
	affList     []int32   // affected dst rows of the node being recomputed
	dstMark     []uint64  // stamp array: affected dsts of a partial recompute
	markGen     uint64
}

// The commit sweep visits every node in postorder, so skipping the untouched
// majority must cost a single byte load — and the byte carries the whole
// propagation signal, so a node recomputed on a dense spine never touches
// the per-node changed-row arrays at all. Levels, in escalation order:
// dirtyDelta marks nodes reached by a child's sparse changed rows (recompute
// just the rows those feed); dirtyDense marks nodes reached by a child whose
// table changed wholesale (recompute in full, no diff, propagate dense);
// dirtyFull marks staged nodes (new weight, fresh splice, stale program),
// which recompute in full and diff, because that is where net-zero churn is
// caught. A node is never downgraded: a dense child overrides a sparse
// sibling, a staged node ignores both.
const (
	dirtyNone uint8 = iota
	dirtyDelta
	dirtyDense
	dirtyFull
)

// Materialize runs one full evaluation of the plan under p and keeps every
// node table, returning the live view. It copies nothing of the plan: the
// view's per-node compiles walk the transitions Prepare's pass visited, so
// they only read the plan's automaton. Safe for concurrent calls.
func (pl *Plan) Materialize(p logic.Prob) (*Materialized, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Materialized{
		pl:      pl,
		st:      &pl.structure,
		au:      &pl.automaton,
		pe:      make([]float64, len(pl.events)),
		layouts: make([][]rowKey, len(pl.nodes)),
		vals:    make([][]float64, len(pl.nodes)),
		progs:   make([]*nodeProg, len(pl.nodes)),
		deltas:  make([]*deltaIdx, len(pl.nodes)),
		dirty:   make([]uint8, len(pl.nodes)),
	}
	for i, e := range pl.events {
		m.pe[i] = p.P(e)
	}
	for t := range m.dirty {
		m.dirty[t] = dirtyFull
	}
	m.anyDirty = true
	if _, err := m.Commit(); err != nil {
		return nil, err
	}
	m.recomp = 0 // the initial build is not an update cost
	return m, nil
}

// Probability returns the query probability under the view's current event
// weights, as of the last Commit.
func (m *Materialized) Probability() float64 { return m.prob }

// Recomputed returns the cumulative number of node tables recomputed by
// Commit since Materialize — the incremental work actually paid, which tests
// and stats compare against the full table count.
func (m *Materialized) Recomputed() int { return m.recomp }

// NumNodes returns the current number of nice nodes (and persisted tables).
func (m *Materialized) NumNodes() int { return len(m.st.nodes) }

// Shape returns the structural statistics of the view's current nice
// decomposition, attached facts included.
func (m *Materialized) Shape() treedec.Stats { return m.st.Shape() }

// EventIndex returns the position of event e among the view's events — the
// index a LaneOverride names — or -1 when e is not one of them.
func (m *Materialized) EventIndex(e logic.Event) int { return m.st.EventIndex(e) }

// Stage records a new probability for event e without recomputing anything:
// it updates the weight and marks the event's forget node dirty. Commit
// applies all staged changes at once.
func (m *Materialized) Stage(e logic.Event, pr float64) error {
	if err := pdb.ValidateProb(pr); err != nil {
		return fmt.Errorf("core: event %q: %w", e, err)
	}
	idx, ok := m.st.eventIdx[e]
	if !ok {
		return fmt.Errorf("core: event %q is not an event of the plan", e)
	}
	if m.pe[idx] == pr {
		return nil
	}
	m.pe[idx] = pr
	t := m.st.forgetAt[idx]
	if t < 0 {
		return fmt.Errorf("core: event %q has no forget node (internal invariant violated)", e)
	}
	m.dirty[t] = dirtyFull
	m.anyDirty = true
	return nil
}

// findAttach locates the node a new fact with the given arguments can be
// absorbed at: the shallowest nice node whose bag contains every argument
// vertex. It reports an error when the fact cannot be absorbed — an argument
// outside the prepared domain, no covering bag, or a bag already at the
// event-bit budget.
func (m *Materialized) findAttach(f rel.Fact) (node int, err error) {
	scope := make([]int, 0, len(f.Args))
	seen := make(map[int]struct{}, len(f.Args))
	for _, a := range f.Args {
		v, ok := m.pl.di.ByName[a]
		if !ok {
			return -1, fmt.Errorf("core: constant %q of fact %s is outside the prepared domain", a, f)
		}
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			scope = append(scope, v)
		}
	}
	if m.attach == nil {
		m.attach = m.st.nice.NewAttachIndex()
	}
	t := m.attach.Find(scope)
	if t < 0 {
		return -1, fmt.Errorf("core: no bag of the decomposition covers the arguments of %s", f)
	}
	if countEvents(m.st.nice.Nodes[t].Bag, m.pl.nDom) >= 60 {
		return -1, fmt.Errorf("core: the covering bag of %s is at the event-bit budget", f)
	}
	return t, nil
}

// CanAttach reports whether StageAttach would absorb a fact with the given
// arguments: some bag of the view's decomposition covers them. The
// pre-flight check incr.Store runs before committing to the in-place
// insertion path.
func (m *Materialized) CanAttach(f rel.Fact) bool {
	_, err := m.findAttach(f)
	return err == nil
}

// StageAttach absorbs a brand-new fact into the live view: fact f, already
// appended to the instance the plan was prepared on, is spliced into the
// view's structure under the fresh event e with probability pr (see splice),
// and the new nodes are marked dirty for the next Commit. f must not have
// been a fact of the instance before (re-adding an existing fact merges
// annotations in the instance but would home the fact twice in the view;
// callers revive existing facts by raising their event probability
// instead). On any error the view is unchanged.
func (m *Materialized) StageAttach(f rel.Fact, e logic.Event, pr float64) error {
	if err := pdb.ValidateProb(pr); err != nil {
		return fmt.Errorf("core: event %q: %w", e, err)
	}
	if _, dup := m.st.eventIdx[e]; dup {
		return fmt.Errorf("core: event %q is already an event of the plan", e)
	}
	t, err := m.findAttach(f)
	if err != nil {
		return err
	}
	if !m.owned {
		m.st, m.au, m.owned = m.st.clone(), m.au.clone(), true
	}
	forget := m.splice(t, f, e)
	m.structGen++
	// The spliced introduce/forget pair holds the last two node indices;
	// their nil programs and tables are compiled and built by the next
	// Commit.
	m.pe = append(m.pe, pr)
	m.layouts = append(m.layouts, nil, nil)
	m.vals = append(m.vals, nil, nil)
	m.progs = append(m.progs, nil, nil)
	m.deltas = append(m.deltas, nil, nil)
	m.dirty = append(m.dirty, dirtyFull, dirtyFull)
	// The splice changes the row layout flowing up from the attach point
	// (the fact transition can mint new state sets), so every ancestor's
	// compiled program — wired against the old child layouts — is stale:
	// drop them for lazy recompilation during the commit sweep.
	for a := m.st.parents[forget]; a >= 0; a = m.st.parents[a] {
		m.progs[a], m.deltas[a] = nil, nil
		m.dirty[a] = dirtyFull
	}
	m.anyDirty = true
	return nil
}

// splice inserts fact f into the view's own structure above node t: a fresh
// event e is introduced and immediately forgotten between t and its parent,
// and the fact is homed at the introduce node with annotation e. The
// covering bag already coloured the arguments, so the fact reaches the query
// through its signature like every prepared fact. Because the event pair is
// local, every other node's bag, bit layout and table are untouched; only
// the spliced nodes and their root path need recomputation. It returns the
// forget node.
func (m *Materialized) splice(t int, f rel.Fact, e logic.Event) int {
	pl, st := m.pl, m.st
	m.attach = nil // the decomposition is about to change
	bag := st.nice.Nodes[t].Bag
	var colourBuf []int
	sig := factSignature(pl.q, f, pl.di, pl.colour, &colourBuf)
	eventIdx := len(st.events)
	v := pl.nDom + eventIdx // beyond every existing vertex: domain, then events in order
	pos := countEvents(bag, pl.nDom)
	st.events = append(st.events, e)
	st.eventIdx[e] = eventIdx

	// The new vertex is the largest, so the introduce bag stays sorted by
	// appending.
	intro := len(st.nodes)
	forget := intro + 1
	introBag := append(append(make([]int, 0, len(bag)+1), bag...), v)
	st.nice.Nodes = append(st.nice.Nodes,
		treedec.NiceNode{Kind: treedec.NiceIntroduce, Vertex: v, Bag: introBag, Children: []int{t}},
		treedec.NiceNode{Kind: treedec.NiceForget, Vertex: v, Bag: append([]int(nil), bag...), Children: []int{intro}},
	)
	st.nodes = append(st.nodes,
		planNode{
			kind: treedec.NiceIntroduce, colour: -1, child0: t, child1: -1,
			isEvent: true, pos: pos, eventIdx: -1,
			facts: []planFact{{sig: sig, cf: logic.CompileVar(pos)}},
		},
		planNode{
			kind: treedec.NiceForget, colour: -1, child0: intro, child1: -1,
			isEvent: true, pos: pos, eventIdx: eventIdx,
		},
	)
	if parent := st.parents[t]; parent < 0 {
		st.nice.Root = forget
		st.root = forget
	} else {
		pn := &st.nodes[parent]
		if pn.child0 == t {
			pn.child0 = forget
		} else {
			pn.child1 = forget
		}
		// Children slices are carved from one array the plan shares: give
		// the parent a fresh one instead of writing through it.
		nn := &st.nice.Nodes[parent]
		children := slices.Clone(nn.Children)
		for i, c := range children {
			if c == t {
				children[i] = forget
			}
		}
		nn.Children = children
	}
	if w := len(introBag) - 1; w > st.width {
		st.width = w
	}
	st.post = st.nice.PostOrder()
	st.rebuildTopology()
	return forget
}

// CommitStats reports what one CommitDelta actually did: how many node
// tables were touched, how many of their rows were recomputed (the delta
// pass recomputes only the rows a child's changes feed), how many recomputed
// tables came out identical and cut their spine short, and whether the root
// table — and with it Probability — changed at all.
type CommitStats struct {
	Nodes         int  // node tables recomputed, in full or partially
	Rows          int  // table rows recomputed across those nodes
	ShortCircuits int  // recomputed non-root tables that came out unchanged, stopping propagation
	Changed       bool // the root table (and so Probability) changed
}

// Commit applies the staged changes and returns the number of node tables
// recomputed. It is CommitDelta for callers that only track node counts.
func (m *Materialized) Commit() (int, error) {
	cs, err := m.CommitDelta()
	return cs.Nodes, err
}

// CommitDelta applies every staged change as one bottom-up change
// propagation. A staged node (new weight, fresh splice) is recomputed in
// full and diffed against its persisted table; an ancestor reached only
// through a child's changed rows recomputes just the rows those changes
// feed, accumulating contributions in program order so the result is
// bit-identical to a full recompute. A node whose recomputed table is
// unchanged propagates nothing — the walk stops there instead of running to
// the root — and when the root table itself is untouched the commit leaves
// Probability (and the commit generation a ShardCombiner caches on) alone.
// Spines shared between staged updates are recomputed once.
func (m *Materialized) CommitDelta() (CommitStats, error) {
	var cs CommitStats
	if !m.anyDirty {
		return cs, nil
	}
	if n := len(m.st.nodes); len(m.changedGen) < n {
		m.changedRows = append(m.changedRows, make([][]int32, n-len(m.changedRows))...)
		m.changedGen = append(m.changedGen, make([]uint64, n-len(m.changedGen))...)
	}
	m.deltaGen++
	gen := m.deltaGen
	root := m.st.root
	rootChanged := false
	var dp *detPass
	for _, t := range m.st.post {
		d := m.dirty[t]
		if d == dirtyNone {
			continue
		}
		m.dirty[t] = dirtyNone
		nd := &m.st.nodes[t]
		staged := d == dirtyFull
		full := staged || d == dirtyDense || m.progs[t] == nil
		var ch0, ch1 []int32
		if !full {
			// Only a sparse (dirtyDelta) node consults the children's
			// changed-row lists; dense propagation travels in the dirty
			// byte alone.
			if nd.child0 >= 0 && m.changedGen[nd.child0] == gen {
				ch0 = m.changedRows[nd.child0]
			}
			if nd.child1 >= 0 && m.changedGen[nd.child1] == gen {
				ch1 = m.changedRows[nd.child1]
			}
			if ch0 == nil && ch1 == nil {
				continue // reached, but every child short-circuited
			}
		}
		np := m.progs[t]
		recompiled := false
		if np == nil {
			if dp == nil {
				dp = newDetPass(m.pl.q, m.st, m.au, m.owned) // this commit's structural scratch
			}
			np = new(nodeProg)
			m.layouts[t] = dp.compileNodeProg(t, m.layouts, np, nil)
			m.progs[t] = np
			recompiled = true
		}
		var c0, c1 []float64
		if nd.child0 >= 0 {
			c0 = m.vals[nd.child0]
		}
		if nd.child1 >= 0 {
			c1 = m.vals[nd.child1]
		}
		var w float64
		if np.kind == pkForgetEvent {
			w = m.pe[np.eventIdx]
		}
		// Density cutover: the partial pass pays two conditional edge scans
		// plus per-row bookkeeping, so once half a child's rows changed a
		// straight full recompute (one unconditional scan, then diff) is
		// cheaper — and on small tables the diff is nearly free.
		if !full {
			dense0 := nd.child0 >= 0 && 2*len(ch0) >= len(c0)
			dense1 := nd.child1 >= 0 && 2*len(ch1) >= len(c1)
			full = dense0 || dense1
		}
		var changed []int32
		dense := false
		switch {
		case full && !staged:
			// Reached through a dense child (or a >half-changed sparse
			// list): the table is recomputed in place with no diff, exactly
			// like a plain full sweep, and propagates dense. The diff is
			// reserved for where change originates — staged nodes, whose
			// tables often come out unchanged (net-zero churn), and sparse
			// partial recomputes — so the propagation spine pays nothing
			// over the pre-delta walk.
			m.commitTrusted(t, np, c0, c1, w, &cs)
			dense = true
		case full:
			changed, dense = m.commitFull(t, np, c0, c1, w, recompiled, m.changedRows[t][:0], &cs)
		default:
			changed = m.commitPartial(t, np, c0, c1, w, ch0, ch1, m.changedRows[t][:0], &cs)
		}
		cs.Nodes++
		switch {
		case dense:
			if p := m.st.parents[t]; p >= 0 && m.dirty[p] < dirtyDense {
				m.dirty[p] = dirtyDense
			}
			if t == root {
				rootChanged = true
			}
		case len(changed) > 0:
			m.changedRows[t] = changed
			m.changedGen[t] = gen
			if p := m.st.parents[t]; p >= 0 && m.dirty[p] == dirtyNone {
				m.dirty[p] = dirtyDelta
			}
			if t == root {
				rootChanged = true
			}
		default:
			if changed != nil {
				m.changedRows[t] = changed // keep the (possibly regrown) buffer
			}
			if m.st.parents[t] >= 0 {
				cs.ShortCircuits++
			}
		}
	}
	m.anyDirty = false
	m.recomp += cs.Nodes
	if !rootChanged {
		return cs, nil // the root table is untouched; Probability stands
	}
	cs.Changed = true
	m.commitGen++
	var prob, mass float64
	rootVals := m.vals[root]
	for i, k := range m.layouts[root] {
		mass += rootVals[i]
		if m.au.accept[k.set] {
			prob += rootVals[i]
		}
	}
	if massDrifted(mass) {
		return cs, errMassDrift(mass)
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	m.prob = prob
	return cs, nil
}

// commitFull recomputes node t's whole table into scratch and diffs it
// against the persisted one, copying the moved rows back so the persisted
// array keeps its identity (and the scratch buffer is reused commit after
// commit). The diff stops listing rows once more than half of them changed —
// at that density the parent recomputes in full anyway (the density
// cutover), so the exact set is dead weight — and reports dense=true
// instead. A recompiled program's rows are laid out against the (possibly
// new) child layouts, so its old table is not comparable row by row and
// counts as dense outright.
func (m *Materialized) commitFull(t int, np *nodeProg, c0, c1 []float64, w float64, recompiled bool, changed []int32, cs *CommitStats) ([]int32, bool) {
	rows := int(np.rows)
	if cap(m.valScratch) < rows {
		m.valScratch = make([]float64, rows)
	}
	scratch := m.valScratch[:rows]
	clear(scratch)
	runNodeProg1(np, scratch, c0, c1, w)
	cs.Rows += rows
	old := m.vals[t]
	if recompiled || len(old) != rows {
		m.vals[t] = append(old[:0], scratch...)
		return changed, true
	}
	dense := false
	half := len(old) / 2
	for i, v := range scratch {
		if v != old[i] {
			if len(changed) > half {
				dense = true
				break
			}
			changed = append(changed, int32(i))
		}
	}
	if dense {
		copy(old, scratch)
	} else {
		for _, i := range changed {
			old[i] = scratch[i]
		}
	}
	return changed, dense
}

// commitTrusted recomputes node t's whole table in place with no diff: the
// caller already knows the change is dense enough that checking for an
// unchanged result is not worth a scan, so the node is simply treated as
// fully changed. This is bit-identical to commitFull's recompute — only the
// bookkeeping differs.
func (m *Materialized) commitTrusted(t int, np *nodeProg, c0, c1 []float64, w float64, cs *CommitStats) {
	rows := int(np.rows)
	v := m.vals[t]
	if len(v) != rows {
		if cap(v) < rows {
			v = make([]float64, rows)
		} else {
			v = v[:rows]
		}
		m.vals[t] = v
	}
	clear(v)
	runNodeProg1(np, v, c0, c1, w)
	cs.Rows += rows
}

// deltaIdx is the lazily built adjacency of one compiled row program, used
// by the partial commit pass. The forward index (srcN*) maps a child row to
// the rows it feeds, for marking; the inverse index (dst*) maps a row to its
// contributions in program order, for re-accumulation. Both passes therefore
// touch only edges incident to the change, instead of scanning the whole
// program twice behind a per-edge condition.
type deltaIdx struct {
	src0Start []int32 // CSR over child0 rows: dst rows each feeds
	src0Dst   []int32
	src1Start []int32 // CSR over child1 rows (joins only)
	src1Dst   []int32
	dstStart  []int32 // CSR over this node's rows: contributions, program order
	dstSrc    []int32 // pkUnary: src row; pkForgetEvent: src<<1 | (0 in edges[:n1], 1 after)
	dstL      []int32 // pkJoin: left source rows
	dstR      []int32 // pkJoin: right source rows
}

// csr32 builds a stable CSR over n buckets from m entries: key(i) gives
// entry i's bucket, and fill is called with each entry's slot in key order
// (entries of one bucket keep their original relative order, which is what
// makes per-row re-accumulation bit-identical to the full program run). The
// bucket starts are written into start when its capacity allows (nil
// allocates them), so a caller building many indexes can reuse one array.
func csr32(start []int32, n, m int, key func(int) int32, fill func(entry, slot int)) []int32 {
	if cap(start) < n+1 {
		start = make([]int32, n+1)
	} else {
		start = start[:n+1]
		clear(start)
	}
	for i := 0; i < m; i++ {
		start[key(i)+1]++
	}
	for b := 0; b < n; b++ {
		start[b+1] += start[b]
	}
	// start[b] serves as bucket b's fill cursor; each stops where bucket
	// b+1 begins, so shifting the cursors up by one restores the starts.
	for i := 0; i < m; i++ {
		b := key(i)
		fill(i, int(start[b]))
		start[b]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return start
}

// buildDeltaIdx compiles the program's delta adjacency. nc0/nc1 are the
// child table sizes the forward indexes span.
func (np *nodeProg) buildDeltaIdx(nc0, nc1 int) *deltaIdx {
	di := &deltaIdx{}
	rows := int(np.rows)
	switch np.kind {
	case pkUnary, pkForgetEvent:
		// A forget-event program's edge list is already in program order —
		// edges[:n1] with weight w, then edges[n1:] with 1-w — so the branch
		// rides in dstSrc's low bit.
		fe := np.kind == pkForgetEvent
		di.src0Dst = make([]int32, len(np.edges))
		di.src0Start = csr32(nil, nc0, len(np.edges),
			func(i int) int32 { return np.edges[i].src },
			func(i, s int) { di.src0Dst[s] = np.edges[i].dst })
		di.dstSrc = make([]int32, len(np.edges))
		di.dstStart = csr32(nil, rows, len(np.edges),
			func(i int) int32 { return np.edges[i].dst },
			func(i, s int) {
				src := np.edges[i].src
				if fe {
					src <<= 1
					if int32(i) >= np.n1 {
						src |= 1
					}
				}
				di.dstSrc[s] = src
			})
	case pkJoin:
		di.src0Dst = make([]int32, len(np.joins))
		di.src0Start = csr32(nil, nc0, len(np.joins),
			func(i int) int32 { return np.joins[i].l },
			func(i, s int) { di.src0Dst[s] = np.joins[i].dst })
		di.src1Dst = make([]int32, len(np.joins))
		di.src1Start = csr32(nil, nc1, len(np.joins),
			func(i int) int32 { return np.joins[i].r },
			func(i, s int) { di.src1Dst[s] = np.joins[i].dst })
		di.dstL = make([]int32, len(np.joins))
		di.dstR = make([]int32, len(np.joins))
		di.dstStart = csr32(nil, rows, len(np.joins),
			func(i int) int32 { return np.joins[i].dst },
			func(i, s int) { di.dstL[s], di.dstR[s] = np.joins[i].l, np.joins[i].r })
	}
	return di
}

// commitPartial recomputes, in place, only the rows of node t's table that
// the children's changed rows feed: it marks the dst rows reachable from
// ch0/ch1 through the program's delta adjacency, zeroes them, and
// re-accumulates every contribution into those rows in program order — so a
// recomputed row is bit-identical to what a full recompute would produce,
// and the unaffected rows (whose inputs are untouched) already are. Work is
// proportional to the edges incident to the changed and affected rows, not
// to the program size.
func (m *Materialized) commitPartial(t int, np *nodeProg, c0, c1 []float64, w float64, ch0, ch1 []int32, changed []int32, cs *CommitStats) []int32 {
	vals := m.vals[t]
	di := m.deltas[t]
	if di == nil {
		di = np.buildDeltaIdx(len(c0), len(c1))
		m.deltas[t] = di
	}
	m.markGen++
	mg := m.markGen
	dst := ensureMark(&m.dstMark, int(np.rows))
	aff := m.affList[:0]
	for _, r := range ch0 {
		for _, d := range di.src0Dst[di.src0Start[r]:di.src0Start[r+1]] {
			if dst[d] != mg {
				dst[d] = mg
				aff = append(aff, d)
			}
		}
	}
	for _, r := range ch1 {
		for _, d := range di.src1Dst[di.src1Start[r]:di.src1Start[r+1]] {
			if dst[d] != mg {
				dst[d] = mg
				aff = append(aff, d)
			}
		}
	}
	if cap(m.oldScratch) < len(aff) {
		m.oldScratch = make([]float64, len(aff))
	}
	oldv := m.oldScratch[:len(aff)]
	for i, d := range aff {
		oldv[i] = vals[d]
		vals[d] = 0
	}
	switch np.kind {
	case pkUnary:
		for _, d := range aff {
			v := vals[d]
			for _, s := range di.dstSrc[di.dstStart[d]:di.dstStart[d+1]] {
				v += c0[s]
			}
			vals[d] = v
		}
	case pkForgetEvent:
		w1m := 1 - w
		for _, d := range aff {
			v := vals[d]
			for _, s := range di.dstSrc[di.dstStart[d]:di.dstStart[d+1]] {
				if s&1 == 0 {
					v += c0[s>>1] * w
				} else {
					v += c0[s>>1] * w1m
				}
			}
			vals[d] = v
		}
	case pkJoin:
		for _, d := range aff {
			v := vals[d]
			for i := di.dstStart[d]; i < di.dstStart[d+1]; i++ {
				v += c0[di.dstL[i]] * c1[di.dstR[i]]
			}
			vals[d] = v
		}
	}
	cs.Rows += len(aff)
	for i, d := range aff {
		if vals[d] != oldv[i] {
			changed = append(changed, d)
		}
	}
	m.affList = aff[:0]
	return changed
}

// ensureMark resizes a stamp array to n entries; stale stamps from earlier
// generations never match the current one, so no clearing is needed.
func ensureMark(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	return (*buf)[:n]
}

// SetEventProb stages a single event-probability change and commits it,
// returning the number of node tables recomputed (at most depth+1).
func (m *Materialized) SetEventProb(e logic.Event, pr float64) (int, error) {
	if err := m.Stage(e, pr); err != nil {
		return 0, err
	}
	return m.Commit()
}

// AttachFact stages the absorption of a new fact and commits it. See
// StageAttach for the contract.
func (m *Materialized) AttachFact(f rel.Fact, e logic.Event, pr float64) (int, error) {
	if err := m.StageAttach(f, e, pr); err != nil {
		return 0, err
	}
	return m.Commit()
}
