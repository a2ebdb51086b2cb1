package core

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/core/kernel"
	"repro/internal/logic"
	"repro/internal/treedec"
)

// This file compiles the dynamic program's row structure into dense row
// programs. The row keys of every node table — and therefore the complete
// src→dst wiring of the bottom-up sweep — depend only on the compiled plan,
// never on the event probabilities. A row program exploits that invariant to
// the end: each node's table becomes a contiguous block of lane vectors in a
// fixed row layout, and the node's work becomes a precompiled edge list
// driven through the kernel primitives (internal/core/kernel). Evaluation
// then runs with no map lookups, no interning and no key hashing at all —
// pure gather/accumulate float arithmetic over adjacent memory.
//
// Fact application is fused into the wiring: a fact homed at a node only
// remaps a row's state set (its annotation reads the row's bits, which no
// fact changes), so the compiler composes all fact transitions into the
// node's dst indices and every row is touched exactly once per node.
//
// The compiler runs inside a structural pass (detPass, plan.go), which
// determinizes each transition as it wires it. Two consumers share it:
//
//   - Prepare compiles the whole plan (compileProgram) and fuses its unary
//     chains; every plan evaluation — Probability, Result (whose lineage is a
//     walk over the same program, as is CQLineage's monotone one),
//     ProbabilityBatch, rootVec — runs it, and PossibleCertain walks it for
//     reachability.
//   - core.Materialized compiles per node, unfused, against its persisted
//     dense tables (compileNodeProg), so live-view spine recomputation runs
//     the same kernels; a structure splice (StageAttach) just drops the
//     affected nodes' programs for recompilation during the next commit.
//
// A program is never written after its compile (and, for the plan's, the
// fusion pass).

// nodeProg kinds.
const (
	pkLeaf uint8 = iota
	pkUnary
	pkForgetEvent
	pkJoin
)

// rpEdge wires child row src into this node's row dst.
type rpEdge struct{ src, dst int32 }

// rpJoin wires the product of left row l and right row r into row dst.
type rpJoin struct{ l, r, dst int32 }

// nodeProg is the compiled row wiring of one nice node: everything the
// node's table computation does, with row keys resolved to dense indices and
// fact transitions folded in.
//
// in0/in1 name the nodes whose blocks feed this program. They start as the
// nice children, but the whole-plan fusion pass (fuseUnaryChains) re-sources
// them past folded unary nodes, so a fused program gathers directly from a
// deeper ancestor's block.
type nodeProg struct {
	kind     uint8
	dead     bool  // folded into its consumer; the sweep skips it entirely
	in0, in1 int32 // source nodes of c0/c1 (-1 when absent)
	rows     int32
	eventIdx int32 // pkForgetEvent: index of the weight lane applied here
	// n1 splits a pkForgetEvent's edges: edges[:n1] feed rows with the event
	// true (weight w), edges[n1:] rows with it false (weight 1-w).
	n1    int32
	edges []rpEdge // pkUnary: plain gather-add edges; pkForgetEvent: see n1
	joins []rpJoin // pkJoin
}

// rowProgram is the whole-plan compile: one nodeProg per nice node plus the
// root layout, attached to a Plan by Prepare.
type rowProgram struct {
	nodes    []*nodeProg
	rootSets []int32         // interned set id of each root row, in row order
	rootRow  map[int32]int32 // set id -> root row, for keyed extraction
}

// factRemap composes the transitions of the facts homed at nd onto row key
// k: each annotation is a compiled mask over k.bits (which no fact changes),
// so the whole fact chain folds into one set remap per row. It reports
// false when a filter homed at nd rejects k.bits.
func (dp *detPass) factRemap(nd *planNode, k rowKey) (rowKey, bool) {
	for i := range nd.facts {
		pf := &nd.facts[i]
		holds := pf.cf.Eval(k.bits)
		switch {
		case pf.sig == filterSig:
			if !holds {
				return k, false
			}
		case holds:
			k.set = dp.stepSet(opFact, pf.sig, k.set)
		}
	}
	return k, true
}

// compileNodeProg compiles the row program of node t into np against the
// given child row layouts (layouts[c] is the key of child c's row i at index
// i) and returns t's own layout, built in buf's backing array when it is
// large enough (with nil, in a fresh one, presized where the node's row
// count is known or bounded by its child's). Rows are laid out in
// first-encounter order over the deterministic child-layout iteration, so
// recompiling a node whose children kept their layouts reproduces the same
// layout. Memo misses determinize the transition on the spot; over the
// structure Prepare compiled every lookup hits (its pass visited them all).
func (dp *detPass) compileNodeProg(t int, layouts [][]rowKey, np *nodeProg, buf []rowKey) []rowKey {
	nd := &dp.st.nodes[t]
	*np = nodeProg{eventIdx: -1, in0: int32(nd.child0), in1: int32(nd.child1)}
	var child []rowKey
	if nd.child0 >= 0 {
		child = layouts[nd.child0]
	}
	want := 0 // the layout's row count, where known or bounded
	switch {
	case nd.kind == treedec.NiceIntroduce && nd.isEvent:
		want = 2 * len(child)
	case nd.kind == treedec.NiceIntroduce:
		want = len(child)
	case nd.kind == treedec.NiceForget && nd.isEvent:
		want = len(child)/2 + 1
	}
	if cap(buf) < want {
		buf = make([]rowKey, 0, want)
	}
	dp.keys = buf[:0]
	dp.rows.reset(len(child))

	switch nd.kind {
	case treedec.NiceLeaf:
		np.kind = pkLeaf
		dp.slot(nd, rowKey{set: dp.au.startSet})

	case treedec.NiceIntroduce:
		np.kind = pkUnary
		if nd.isEvent {
			pos := nd.pos
			np.edges = make([]rpEdge, 0, 2*len(child))
			for si, k := range child {
				np.edges = dp.edge(np.edges, nd, si, rowKey{set: k.set, bits: insertBit(k.bits, pos, false)})
				np.edges = dp.edge(np.edges, nd, si, rowKey{set: k.set, bits: insertBit(k.bits, pos, true)})
			}
		} else {
			np.edges = make([]rpEdge, 0, len(child))
			for si, k := range child {
				np.edges = dp.edge(np.edges, nd, si, rowKey{set: dp.stepSet(opIntroduce, nd.colour, k.set), bits: k.bits})
			}
		}

	case treedec.NiceForget:
		switch {
		case nd.eventIdx >= 0:
			// Every child row feeds one edge: true-bit edges first, then
			// the false-bit ones, each in child-row order.
			np.kind = pkForgetEvent
			np.eventIdx = int32(nd.eventIdx)
			pos := nd.pos
			np.edges = make([]rpEdge, 0, len(child))
			e0 := dp.e0[:0]
			for si, k := range child {
				key := rowKey{set: k.set, bits: removeBit(k.bits, pos)}
				if k.bits&(1<<uint(pos)) != 0 {
					np.edges = dp.edge(np.edges, nd, si, key)
				} else {
					e0 = dp.edge(e0, nd, si, key)
				}
			}
			np.n1 = int32(len(np.edges))
			np.edges = append(np.edges, e0...)
			dp.e0 = e0
		case nd.isEvent:
			// A pcc gate: its value is fixed by its inputs, so its two
			// rows merge with no weight.
			np.kind = pkUnary
			np.edges = make([]rpEdge, 0, len(child))
			for si, k := range child {
				np.edges = dp.edge(np.edges, nd, si, rowKey{set: k.set, bits: removeBit(k.bits, nd.pos)})
			}
		default:
			np.kind = pkUnary
			np.edges = make([]rpEdge, 0, len(child))
			for si, k := range child {
				np.edges = dp.edge(np.edges, nd, si, rowKey{set: dp.stepSet(opForget, nd.colour, k.set), bits: k.bits})
			}
		}

	case treedec.NiceJoin:
		np.kind = pkJoin
		left, right := child, layouts[nd.child1]
		// In-bag events are shared between the children, so only rows with
		// equal bits combine: chain the right rows of each bits value once,
		// in ascending order, then each left row joins against its (usually
		// tiny) matching run — a linear merge instead of the quadratic
		// all-pairs scan.
		dp.runs.reset(len(right))
		dp.runNext = grow(dp.runNext, len(right))
		for ri := len(right) - 1; ri >= 0; ri-- {
			k := rowKey{bits: right[ri].bits}
			if i, found := dp.runs.find(k); found {
				dp.runNext[ri], dp.runs.vals[i] = dp.runs.vals[i], int32(ri)
			} else {
				dp.runNext[ri] = -1
				dp.runs.insert(i, k, int32(ri))
			}
		}
		for li, lk := range left {
			i, found := dp.runs.find(rowKey{bits: lk.bits})
			if !found {
				continue
			}
			for ri := dp.runs.vals[i]; ri >= 0; ri = dp.runNext[ri] {
				if dst := dp.slot(nd, rowKey{set: dp.joinSets(lk.set, right[ri].set), bits: lk.bits}); dst >= 0 {
					np.joins = append(np.joins, rpJoin{l: int32(li), r: ri, dst: dst})
				}
			}
		}
	}
	keys := dp.keys
	dp.keys = nil
	np.rows = int32(len(keys))
	return keys
}

// edge appends to edges the edge from child row src to the row k lands in,
// unless a filter drops k.
func (dp *detPass) edge(edges []rpEdge, nd *planNode, src int, k rowKey) []rpEdge {
	if dst := dp.slot(nd, k); dst >= 0 {
		edges = append(edges, rpEdge{src: int32(src), dst: dst})
	}
	return edges
}

// slot returns the row of node nd's table that row key k (before the
// node's fact transitions) lands in, appending a new row to the layout
// under construction on first encounter, or -1 when a filter drops k.
func (dp *detPass) slot(nd *planNode, k rowKey) int32 {
	k, ok := dp.factRemap(nd, k)
	if !ok {
		return -1
	}
	i, found := dp.rows.find(k)
	if found {
		return dp.rows.vals[i]
	}
	r := int32(len(dp.keys))
	dp.rows.insert(i, k, r)
	dp.keys = append(dp.keys, k)
	return r
}

// rowTable is a flat open-addressing hash table from row keys to int32
// values (linear probing), emptied in O(1) between nodes by a generation
// stamp: an entry whose stamp is not the current generation is free. One
// table serves every node of a structural pass, so the per-node row index
// costs neither a map nor a clear.
type rowTable struct {
	keys  []rowKey
	vals  []int32
	stamp []uint32
	gen   uint32
	n     int
	shift uint8 // 64 - log2(len(keys))
}

// reset empties the table and makes room for about hint entries.
func (rt *rowTable) reset(hint int) {
	rt.n = 0
	if rt.gen++; rt.gen == 0 { // wrapped: stale stamps could read as current
		clear(rt.stamp)
		rt.gen = 1
	}
	if size := len(rt.keys); size == 0 || 2*hint > size {
		rt.resize(max(64, 2*hint))
	}
}

// resize reallocates the table with at least size slots, rehashing the
// current generation's entries.
func (rt *rowTable) resize(size int) {
	n := 1
	shift := uint8(64)
	for n < size {
		n <<= 1
		shift--
	}
	keys, vals, stamp := rt.keys, rt.vals, rt.stamp
	rt.keys, rt.vals, rt.stamp, rt.shift = make([]rowKey, n), make([]int32, n), make([]uint32, n), shift
	for j := range keys {
		if stamp[j] == rt.gen {
			i, _ := rt.find(keys[j])
			rt.keys[i], rt.vals[i], rt.stamp[i] = keys[j], vals[j], rt.gen
		}
	}
}

// find returns the slot of k: where it is stored, or where it would be
// inserted.
func (rt *rowTable) find(k rowKey) (int, bool) {
	mask := len(rt.keys) - 1
	h := (uint64(uint32(k.set))*0x9E3779B97F4A7C15 ^ k.bits) * 0xBF58476D1CE4E5B9
	for i := int(h >> rt.shift); ; i = (i + 1) & mask {
		if rt.stamp[i] != rt.gen {
			return i, false
		}
		if rt.keys[i] == k {
			return i, true
		}
	}
}

// insert stores k → v in the free slot i that find returned, doubling the
// table once it is half full.
func (rt *rowTable) insert(i int, k rowKey, v int32) {
	rt.keys[i], rt.vals[i], rt.stamp[i] = k, v, rt.gen
	if rt.n++; 2*rt.n > len(rt.keys) {
		rt.resize(2 * len(rt.keys))
	}
}

// compileProgram compiles every node of the plan in one structural pass and
// fuses away the plain-unary copy chains. The node programs share one
// array, and each child's layout, once its parent has consumed it, is
// recycled as the backing array of a later node's layout.
func (dp *detPass) compileProgram() *rowProgram {
	st := dp.st
	layouts := make([][]rowKey, len(st.nodes))
	progs := make([]nodeProg, len(st.nodes))
	prog := &rowProgram{nodes: make([]*nodeProg, len(st.nodes))}
	var free [][]rowKey
	for _, t := range st.post {
		var buf []rowKey
		if n := len(free); n > 0 {
			buf, free = free[n-1], free[:n-1]
		}
		prog.nodes[t] = &progs[t]
		layouts[t] = dp.compileNodeProg(t, layouts, &progs[t], buf)
		// This node is the only consumer of its children's layouts.
		if nd := &st.nodes[t]; nd.child0 >= 0 {
			free = append(free, layouts[nd.child0])
			layouts[nd.child0] = nil
			if nd.child1 >= 0 {
				free = append(free, layouts[nd.child1])
				layouts[nd.child1] = nil
			}
		}
	}
	prog.fuseUnaryChains(st.post, st.root)
	rootKeys := layouts[st.root]
	prog.rootSets = make([]int32, len(rootKeys))
	prog.rootRow = make(map[int32]int32, len(rootKeys))
	for i, k := range rootKeys {
		prog.rootSets[i] = k.set
		prog.rootRow[k.set] = int32(i)
	}
	return prog
}

// fuseUnaryChains folds pkUnary programs into their consumers: a plain
// gather-add node is a 0/1 linear map, so composing its edge list into the
// parent's source indices yields the same block without ever materializing
// the intermediate one. Nice decompositions are dominated by such nodes
// (introduce/forget of domain vertices, event introductions), so after
// fusion the sweep only materializes leaf, forget-event and join blocks —
// each surviving kernel gathers straight from the previous surviving block.
//
// Nodes are visited in post order; chains collapse one link per visit since
// a folded child's sources were already re-sourced at its own visit. Every
// node has exactly one consumer (the decomposition is a tree), so folding a
// child never duplicates its work. Composition through a merging node
// multiplies edge lists; a fold that would blow the parent's edge count past
// a small multiple is skipped (the node then simply stays materialized).
func (rp *rowProgram) fuseUnaryChains(post []int, root int) {
	var f fuser
	for _, t := range post {
		if t == root {
			continue // the root block is the program's output
		}
		np := rp.nodes[t]
		if np.dead {
			continue
		}
		f.fuseInput(rp, np, &np.in0, true)
		if np.kind == pkJoin {
			f.fuseInput(rp, np, &np.in1, false)
		}
	}
}

// fuser is the scratch of one fusion pass: the inverted edge index of the
// unary child being folded, rebuilt in place for every fold. The child-input
// rows feeding child row d are invSrc[invStart[d]:invStart[d+1]].
type fuser struct {
	invSrc   []int32
	invStart []int32
}

// invert builds the inverted edge index of a pkUnary program, listing each
// row's sources in edge order.
func (f *fuser) invert(child *nodeProg) {
	f.invSrc = grow(f.invSrc[:0], len(child.edges))
	f.invStart = csr32(f.invStart, int(child.rows), len(child.edges),
		func(i int) int32 { return child.edges[i].dst },
		func(i, s int) { f.invSrc[s] = child.edges[i].src })
}

// inv returns the child-input rows feeding child row d.
func (f *fuser) inv(d int32) []int32 { return f.invSrc[f.invStart[d]:f.invStart[d+1]] }

// project returns the edge count substituting the inverted child into edges
// yields, and whether it stays within the fold's growth bound.
func (f *fuser) project(edges []rpEdge) (int, bool) {
	n := 0
	for _, e := range edges {
		n += len(f.inv(e.src))
	}
	return n, n <= 2*len(edges)+16
}

// substEdges returns edges with every source row replaced by the child-input
// rows feeding it.
func (f *fuser) substEdges(edges []rpEdge, n int) []rpEdge {
	out := make([]rpEdge, 0, n)
	for _, e := range edges {
		for _, cs := range f.inv(e.src) {
			out = append(out, rpEdge{src: cs, dst: e.dst})
		}
	}
	return out
}

// fuseInput folds the pkUnary chain feeding one input of np (left when
// isLeft, the join's right otherwise), rewriting the matching source-index
// lists in place.
func (f *fuser) fuseInput(rp *rowProgram, np *nodeProg, in *int32, isLeft bool) {
	for *in >= 0 {
		child := rp.nodes[*in]
		if child.kind != pkUnary || child.dead {
			return
		}
		f.invert(child)
		switch np.kind {
		case pkUnary, pkForgetEvent:
			// Each part (a unary's n1 is 0) is bounded on its own, and
			// substitution keeps the parts in order, so the split moves to
			// the first part's substituted length.
			n1, ok1 := f.project(np.edges[:np.n1])
			n0, ok0 := f.project(np.edges[np.n1:])
			if !ok0 || !ok1 || n0+n1 > 2*len(np.edges)+16 {
				return
			}
			np.edges = f.substEdges(np.edges, n0+n1)
			np.n1 = int32(n1)
		case pkJoin:
			n := 0
			for _, j := range np.joins {
				if isLeft {
					n += len(f.inv(j.l))
				} else {
					n += len(f.inv(j.r))
				}
			}
			if n > 2*len(np.joins)+16 {
				return
			}
			out := make([]rpJoin, 0, n)
			for _, j := range np.joins {
				if isLeft {
					for _, cs := range f.inv(j.l) {
						out = append(out, rpJoin{l: cs, r: j.r, dst: j.dst})
					}
				} else {
					for _, cs := range f.inv(j.r) {
						out = append(out, rpJoin{l: j.l, r: cs, dst: j.dst})
					}
				}
			}
			np.joins = out
		default:
			return
		}
		child.dead = true
		child.edges = nil // the sweep skips dead programs; keep no copy of the folded edges
		*in = child.in0
	}
}

// runNodeProg executes one node's program over B-lane row blocks: dst is the
// node's zeroed rows*B block, c0/c1 the children's blocks, w the node's
// weight lane block (pkForgetEvent only).
//
//pdblint:hotpath
func runNodeProg(np *nodeProg, B int, dst, c0, c1, w []float64) {
	switch np.kind {
	case pkLeaf:
		kernel.Fill(dst[:B], 1)
	case pkUnary:
		for _, e := range np.edges {
			kernel.AddTo(dst[int(e.dst)*B:int(e.dst)*B+B], c0[int(e.src)*B:int(e.src)*B+B])
		}
	case pkForgetEvent:
		for _, e := range np.edges[:np.n1] {
			kernel.MulAdd(dst[int(e.dst)*B:int(e.dst)*B+B], c0[int(e.src)*B:int(e.src)*B+B], w)
		}
		for _, e := range np.edges[np.n1:] {
			kernel.FMAdd1m(dst[int(e.dst)*B:int(e.dst)*B+B], c0[int(e.src)*B:int(e.src)*B+B], w)
		}
	case pkJoin:
		for _, j := range np.joins {
			kernel.MulAdd(dst[int(j.dst)*B:int(j.dst)*B+B], c0[int(j.l)*B:int(j.l)*B+B], c1[int(j.r)*B:int(j.r)*B+B])
		}
	}
}

// runNodeProg1 is the single-lane (B = 1) specialization used by
// Materialized spine recomputation, where per-edge kernel-call overhead
// would dominate one-element blocks.
//
//pdblint:hotpath
func runNodeProg1(np *nodeProg, dst, c0, c1 []float64, w float64) {
	switch np.kind {
	case pkLeaf:
		dst[0] = 1
	case pkUnary:
		for _, e := range np.edges {
			dst[e.dst] += c0[e.src]
		}
	case pkForgetEvent:
		for _, e := range np.edges[:np.n1] {
			dst[e.dst] += c0[e.src] * w
		}
		w1m := 1 - w
		for _, e := range np.edges[np.n1:] {
			dst[e.dst] += c0[e.src] * w1m
		}
	case pkJoin:
		for _, j := range np.joins {
			dst[j.dst] += c0[j.l] * c1[j.r]
		}
	}
}

// runBatchProg executes the row program prog bottom-up under the
// lane-major weight matrix pe and returns the root block (rows × B,
// lane-major), whose ownership passes to the caller (Put it back into st's
// arena). Blocks are recycled through the arena as soon as each parent has
// consumed them, so the live memory tracks the frontier of the sweep and
// steady-state calls through a pooled state allocate nothing.
//
//pdblint:hotpath
func (pl *Plan) runBatchProg(st *evalState, prog *rowProgram, pe []float64, B int) []float64 {
	if len(st.blocks) < len(pl.nodes) {
		st.blocks = make([][]float64, len(pl.nodes))
	}
	blocks := st.blocks
	for _, t := range pl.post {
		np := prog.nodes[t]
		if np.dead {
			continue // folded into its consumer by fuseUnaryChains
		}
		dst := st.arena.Get(int(np.rows) * B)
		var c0, c1 []float64
		if np.in0 >= 0 {
			c0 = blocks[np.in0]
		}
		if np.in1 >= 0 {
			c1 = blocks[np.in1]
		}
		var w []float64
		if np.kind == pkForgetEvent {
			w = pe[int(np.eventIdx)*B : int(np.eventIdx)*B+B]
		}
		runNodeProg(np, B, dst, c0, c1, w)
		if c0 != nil {
			st.arena.Put(c0)
			blocks[np.in0] = nil
		}
		if c1 != nil {
			st.arena.Put(c1)
			blocks[np.in1] = nil
		}
		blocks[t] = dst
	}
	root := blocks[pl.root]
	blocks[pl.root] = nil
	return root
}

// lineage builds the plan's d-DNNF lineage by walking the row program: one
// gate per row, each row the OR over its incoming edges of the AND of the
// source row's gate with the edge's event literal (forget-event edges) or
// with the other join operand's gate (join edges). Leaves are true, and the
// root is the OR of the accepting root rows.
//
// Determinism holds because the automaton is determinized: a row's gate
// holds on exactly the valuations of the events forgotten below it that
// drive the run into that row, and the rows of one table partition them.
// So the disjuncts of one row either come from distinct rows of one table
// or differ in the literal a forget-event edge conjoins. Decomposability
// holds because a gate mentions only events forgotten in its own subtree: a
// forget edge conjoins the event being forgotten there, a join edge
// combines disjoint subtrees. Fused unary chains are 0/1 maps that never
// drop an event bit, so they keep both properties.
//
// With monotone set, every negative literal is true instead and no Not gate
// is built: the monotone lineage of CQLineage, whose doc says why it is
// exact for monotone queries.
func (pl *Plan) lineage(prog *rowProgram, monotone bool) (*circuit.Circuit, circuit.Gate) {
	c := circuit.New()
	gates := make([][]circuit.Gate, len(prog.nodes))
	var ors [][]circuit.Gate
	for _, t := range pl.post {
		np := prog.nodes[t]
		if np.dead {
			continue
		}
		var g0, g1 []circuit.Gate
		if np.in0 >= 0 {
			g0, gates[np.in0] = gates[np.in0], nil
		}
		if np.in1 >= 0 {
			g1, gates[np.in1] = gates[np.in1], nil
		}
		ors = grow(ors, int(np.rows))
		for r := range np.rows {
			ors[r] = ors[r][:0]
		}
		switch np.kind {
		case pkLeaf:
			ors[0] = append(ors[0], c.Const(true))
		case pkUnary:
			for _, e := range np.edges {
				ors[e.dst] = append(ors[e.dst], g0[e.src])
			}
		case pkForgetEvent:
			lit1 := c.Var(pl.events[np.eventIdx])
			lit0 := c.Const(true)
			if !monotone {
				lit0 = c.Not(lit1)
			}
			for _, e := range np.edges[:np.n1] {
				ors[e.dst] = append(ors[e.dst], c.And(g0[e.src], lit1))
			}
			for _, e := range np.edges[np.n1:] {
				ors[e.dst] = append(ors[e.dst], c.And(g0[e.src], lit0))
			}
		case pkJoin:
			for _, j := range np.joins {
				ors[j.dst] = append(ors[j.dst], c.And(g0[j.l], g1[j.r]))
			}
		}
		out := make([]circuit.Gate, np.rows)
		for r := range out {
			out[r] = c.Or(ors[r]...)
		}
		gates[t] = out
	}
	var accept []circuit.Gate
	for i, set := range prog.rootSets {
		if pl.accept[set] {
			accept = append(accept, gates[pl.root][i])
		}
	}
	// Deterministic OR order for reproducible circuits.
	slices.Sort(accept)
	return c, c.Or(accept...)
}

// PossibleCertain reports whether the query is possible under p — it holds
// in the world of some valuation p allows — and whether it is certain — it
// holds in the world of every such valuation. An event of probability 0 is
// false in every allowed valuation, one of probability 1 true, and any
// other event may take either value.
//
// One pass over the row program marks the rows some allowed valuation
// reaches. A row of a table stands for the valuations of the events
// forgotten below it that drive the run into that row, so a row is
// reachable iff one of its incoming edges is enabled from reachable
// sources: a forget-event edge is enabled when p allows its event value,
// and a join edge needs both operands, whose forgotten events are disjoint.
// The query is possible iff a reachable root row accepts, and certain iff
// every reachable root row does. No probability is summed, so the answer is
// exact on any pc-instance, negated annotations included. Safe for
// concurrent calls.
func (pl *Plan) PossibleCertain(p logic.Prob) (possible, certain bool, err error) {
	if err := p.Validate(); err != nil {
		return false, false, err
	}
	prog := pl.prog
	reach := make([][]bool, len(prog.nodes))
	for _, t := range pl.post {
		np := prog.nodes[t]
		if np.dead {
			continue
		}
		var r0, r1 []bool
		if np.in0 >= 0 {
			r0, reach[np.in0] = reach[np.in0], nil
		}
		if np.in1 >= 0 {
			r1, reach[np.in1] = reach[np.in1], nil
		}
		out := make([]bool, np.rows)
		switch np.kind {
		case pkLeaf:
			out[0] = true
		case pkUnary, pkForgetEvent:
			edges := np.edges
			if np.kind == pkForgetEvent {
				switch p.P(pl.events[np.eventIdx]) {
				case 0:
					edges = edges[np.n1:] // only the false-bit edges
				case 1:
					edges = edges[:np.n1] // only the true-bit edges
				}
			}
			for _, e := range edges {
				out[e.dst] = out[e.dst] || r0[e.src]
			}
		case pkJoin:
			for _, j := range np.joins {
				out[j.dst] = out[j.dst] || r0[j.l] && r1[j.r]
			}
		}
		reach[t] = out
	}
	certain = true
	for i, set := range prog.rootSets {
		if reach[pl.root][i] {
			possible = possible || pl.accept[set]
			certain = certain && pl.accept[set]
		}
	}
	return possible, certain, nil
}

// fillLaneWeights writes the lane-major Bernoulli weight matrix of ps into
// the state's weight buffer: pe[i*B+l] = ps[l].P(events[i]). Instead of one
// hashed string lookup per (event, lane) pair, it fills the 0.5 default
// (logic.Prob's convention for unlisted events) and scatters each lane's map
// entries through the plan's single event index, so every string key hashes
// into one cache-resident map exactly once per lane.
//
// Validation is fused into the scatter, so each lane's map is iterated once.
// A lane with an out-of-range or NaN probability is recorded in the returned
// error slice (nil when every lane is valid, matching sanitizeLanes) and its
// weight column is reset to the 0.5 defaults so the shared program stays
// finite; the caller overwrites its output with NaN. Callers whose maps are
// already validated ignore the slice.
func (pl *Plan) fillLaneWeights(st *evalState, ps []logic.Prob) ([]float64, []error) {
	B := len(ps)
	need := len(pl.events) * B
	if cap(st.peBuf) < need {
		st.peBuf = make([]float64, need)
	}
	pe := st.peBuf[:need]
	kernel.Fill(pe, 0.5)
	var errs []error
	for l, p := range ps {
		bad := false
		for e, v := range p {
			if !(v >= 0 && v <= 1) { // negated comparison catches NaN
				if errs == nil {
					errs = make([]error, B)
				}
				errs[l] = fmt.Errorf("logic: probability of event %q is %v, outside [0,1]", e, v)
				bad = true
				break
			}
			if i, ok := pl.eventIdx[e]; ok {
				pe[i*B+l] = v
			}
		}
		if bad {
			// Reset whatever the lane wrote before the invalid entry.
			for i := 0; i < len(pl.events); i++ {
				pe[i*B+l] = 0.5
			}
		}
	}
	return pe, errs
}
