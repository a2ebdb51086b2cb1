package core

import (
	"fmt"
	"sync"

	"repro/internal/core/kernel"
)

// This file answers probability-override requests from live Materialized
// views. A request lane overrides a few event weights; every node table off
// the overridden events' spines (forget node up to the root) is, in that
// lane, exactly the table the view already persists. So a B-lane pass
// recomputes only the union of those spines, through the nodes' existing
// row programs: a clean child feeds its dirty parent by broadcasting its
// persisted B=1 table across the lane block, and a shard no lane touches
// contributes its current root vector to every lane of the cross-shard fold.
//
// The pass only reads the views — their weights, tables, programs and the
// combiner's fold — and keeps all of its working memory in a pooled
// laneScratch, so any number of passes may run concurrently between commits
// (incr runs them under the store's read lock).

// LaneOverride sets the weight of one event in one lane of a lane pass.
// Event is the event's index in the shard view (Materialized.EventIndex).
type LaneOverride struct {
	Lane  int32
	Event int32
	P     float64
}

// laneScratch is the working memory of one lane pass. Node and event marks
// are generation stamps, so a scratch reused across views of any size never
// needs clearing.
type laneScratch struct {
	arena   kernel.Arena
	gen     uint64
	mark    []uint64    // node t is on an overridden spine when mark[t] == gen
	blocks  [][]float64 // lane block of each computed spine node
	evMark  []uint64    // event e is overridden when evMark[e] == gen
	evSlot  []int32     // row of an overridden event in weights
	weights []float64   // one B-lane weight row per overridden event
	bcast   []float64   // the weight row of an event no lane overrides
}

var laneScratchPool = sync.Pool{New: func() any { return new(laneScratch) }}

// grow extends s to at least n entries; new entries are zero, which no
// generation stamp ever equals.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// laneRoot runs the B-lane pass of one view under the overrides ovs and
// returns the root block (root rows × B, lane-major, in the root layout's
// row order), taken from ls's arena.
func (m *Materialized) laneRoot(ls *laneScratch, B int, ovs []LaneOverride) ([]float64, error) {
	st := m.st
	ls.gen++
	gen := ls.gen
	ls.mark = grow(ls.mark, len(st.nodes))
	ls.blocks = grow(ls.blocks, len(st.nodes))
	ls.evMark = grow(ls.evMark, len(st.events))
	ls.evSlot = grow(ls.evSlot, len(st.events))
	mark, evMark, evSlot := ls.mark, ls.evMark, ls.evSlot
	weights := ls.weights[:0]

	// Give each overridden event a weight row (its current weight in every
	// lane, then the overrides) and mark its spine up to the first node
	// another spine already marked.
	for _, o := range ovs {
		e := int(o.Event)
		if e < 0 || e >= len(m.pe) || o.Lane < 0 || int(o.Lane) >= B {
			return nil, fmt.Errorf("core: lane override (lane %d, event %d) out of range", o.Lane, o.Event)
		}
		if evMark[e] != gen {
			if st.forgetAt[e] < 0 {
				return nil, fmt.Errorf("core: event %q has no forget node (internal invariant violated)", st.events[e])
			}
			evMark[e] = gen
			evSlot[e] = int32(len(weights) / B)
			for l := 0; l < B; l++ {
				weights = append(weights, m.pe[e])
			}
			for t := st.forgetAt[e]; t >= 0 && mark[t] != gen; t = st.parents[t] {
				mark[t] = gen
			}
		}
		weights[int(evSlot[e])*B+int(o.Lane)] = o.P
	}
	ls.weights = weights

	// Recompute the marked nodes bottom-up; skipping an unmarked one costs
	// a single load, as in the commit sweep.
	for _, t := range st.post {
		if mark[t] != gen {
			continue
		}
		np := m.progs[t]
		if np == nil {
			return nil, fmt.Errorf("core: node %d has no compiled program (uncommitted view)", t)
		}
		nd := &st.nodes[t]
		c0 := m.laneInput(ls, nd.child0, B)
		c1 := m.laneInput(ls, nd.child1, B)
		var w []float64
		if np.kind == pkForgetEvent {
			e := np.eventIdx
			if evMark[e] == gen {
				w = weights[int(evSlot[e])*B : int(evSlot[e])*B+B]
			} else {
				ls.bcast = grow(ls.bcast, B)
				w = ls.bcast[:B]
				kernel.Fill(w, m.pe[e])
			}
		}
		dst := ls.arena.Get(int(np.rows) * B)
		runNodeProg(np, B, dst, c0, c1, w)
		ls.arena.Put(c0)
		ls.arena.Put(c1)
		ls.blocks[t] = dst
	}
	root := ls.blocks[st.root]
	ls.blocks[st.root] = nil
	return root, nil
}

// laneInput returns the lane block feeding a parent from child c: the
// child's computed block when it is on a spine, its persisted table
// broadcast across the lanes otherwise (nil when there is no child).
func (m *Materialized) laneInput(ls *laneScratch, c, B int) []float64 {
	if c < 0 {
		return nil
	}
	if ls.mark[c] == ls.gen {
		b := ls.blocks[c]
		ls.blocks[c] = nil
		return b
	}
	vals := m.vals[c]
	b := ls.arena.Get(len(vals) * B)
	for r, v := range vals {
		kernel.Fill(b[r*B:r*B+B], v)
	}
	return b
}

// ProbabilityBatch answers B lanes of event overrides against the shards'
// current tables: ovs[i] holds the overrides of shard i (the shard's lane
// pass runs only when it is non-empty), and every shard no lane touches
// feeds its current root vector to every lane of the fold. failed is nil or
// holds one entry per lane; a non-nil entry marks a lane the caller already
// rejected, which comes back NaN. Lane semantics follow
// (*Plan).ProbabilityBatch: when any lane failed the error is a LaneErrors
// (it may share failed's backing array) and healthy lanes keep their values.
//
// Unlike Probability, ProbabilityBatch writes nothing to the combiner or its
// views, so concurrent calls are safe while no commit runs. Call it only on
// a committed combiner: after the views' last commit, Probability has run.
func (sc *ShardCombiner) ProbabilityBatch(B int, ovs [][]LaneOverride, failed []error) ([]float64, error) {
	if B == 0 {
		return nil, nil
	}
	if nan := allLanesNaN(failed); nan != nil {
		return nan, LaneErrors(failed)
	}
	for i, m := range sc.ms {
		if m.structGen != sc.gens[i] {
			return nil, fmt.Errorf("core: shard %d changed structure since the last fold", i)
		}
	}
	ls := laneScratchPool.Get().(*laneScratch)
	defer laneScratchPool.Put(ls)
	cur := ls.arena.Get(B)
	kernel.Fill(cur, 1)
	for si := range sc.prog.steps {
		step := &sc.prog.steps[si]
		m, ext := sc.ms[si], sc.extract[si]
		next := ls.arena.Get(step.rows * B)
		if si < len(ovs) && len(ovs[si]) > 0 {
			root, err := m.laneRoot(ls, B, ovs[si])
			if err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", si, err)
			}
			for _, e := range step.edges {
				r := int(ext[e.b]) * B
				kernel.MulAdd(next[int(e.out)*B:int(e.out)*B+B], cur[int(e.a)*B:int(e.a)*B+B], root[r:r+B])
			}
			ls.arena.Put(root)
		} else {
			rootVals := m.vals[m.st.root]
			for _, e := range step.edges {
				kernel.ScaleAdd(next[int(e.out)*B:int(e.out)*B+B], cur[int(e.a)*B:int(e.a)*B+B], rootVals[ext[e.b]])
			}
		}
		ls.arena.Put(cur)
		cur = next
	}
	out := make([]float64, B)
	totals := make([]float64, B)
	for r := 0; r < sc.prog.final; r++ {
		row := cur[r*B : r*B+B]
		kernel.AddTo(totals, row)
		if sc.prog.accepts[r] {
			kernel.AddTo(out, row)
		}
	}
	ls.arena.Put(cur)
	lerrs := failed
	finishLanes(out, totals, &lerrs)
	return out, laneError(lerrs)
}
