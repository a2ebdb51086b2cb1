package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/gen"
	"repro/internal/pdb"
	"repro/internal/pdbio"
	"repro/internal/rel"
)

// Serving instance: chainsK disjoint R·S·T chains of chainN links, so the
// store holds chainsK shards of width 1 and 3·chainsK·chainN facts.
const (
	chainsK = 4
	chainN  = 10
	// Fact probabilities are drawn from [probLo, probHi], keeping the hot
	// answers away from 0 and 1 so a wrong answer cannot hide there.
	probLo, probHi = 0.01, 0.1
)

// hotShapes is the hot set: few enough query shapes to live in the 64-entry
// plan cache, each sent under several spellings.
var hotShapes = []string{
	"R(?x) & S(?x,?y) & T(?y)",
	"S(?x,?y) & S(?y,?z)",
	"R(?x) & S(?x,?y)",
	"S(?x,?y) & T(?y)",
}

// batchShape is the shape every /batch asks: one shape, so the /batch
// latency is one population rather than a mixture whose median falls in a
// gap between shapes of unequal cost.
const batchShape = 0

const (
	spellingsPerShape = 6
	batchLanes        = 16
	overridesPerLane  = 4
	batchPool         = 24 // distinct /batch payloads per run
	pairShare         = 0.1
)

type opKind uint8

const (
	opQuery opKind = iota
	opBatch
	opUpdate
)

var opPaths = [...]string{opQuery: "/query", opBatch: "/batch", opUpdate: "/update"}

// serveOp is one scheduled request; ref indexes the spelling, batch payload
// or update it sends.
type serveOp struct {
	kind  opKind
	shape int
	ref   int
	body  []byte
}

// batchSpec is one /batch payload: per lane, store fact id -> probability.
type batchSpec struct {
	shape int
	lanes []map[int]float64
	body  []byte
}

// updateSpec is one /update request: a set of fact id to p, or (pair) a
// delete of the fact followed by its re-insert at p in the same request, so
// the instance keeps its size.
type updateSpec struct {
	id   int
	p    float64
	pair bool
	body []byte
}

// serveInputs is everything a serve workload sends, derived from the seed
// alone.
type serveInputs struct {
	tid       *pdb.TID
	shapes    []rel.CQ
	spellings [][]string // per shape
	bodies    [][][]byte // /query request body per shape and spelling
	batches   []batchSpec
	updates   []updateSpec
}

func newServeInputs(seed int64, withUpdates int) (*serveInputs, error) {
	r := rand.New(rand.NewSource(seed))
	tid := gen.RSTChains(chainsK, chainN, probLo)
	for i := range tid.Probs {
		tid.Probs[i] = probLo + (probHi-probLo)*r.Float64()
	}
	in := &serveInputs{tid: tid}
	for _, text := range hotShapes {
		q, err := pdbio.ParseCQ(text)
		if err != nil {
			return nil, fmt.Errorf("hot shape %q: %w", text, err)
		}
		in.shapes = append(in.shapes, q)
		var sp []string
		var bodies [][]byte
		for j := 0; j < spellingsPerShape; j++ {
			text := spell(q, j, r)
			sp = append(sp, text)
			bodies = append(bodies, mustJSON(map[string]string{"query": text}))
		}
		in.spellings = append(in.spellings, sp)
		in.bodies = append(in.bodies, bodies)
	}
	n := tid.NumFacts()
	for b := 0; b < batchPool; b++ {
		bs := batchSpec{shape: batchShape}
		wire := make([]map[string]float64, batchLanes)
		for l := range wire {
			lane := map[int]float64{}
			wire[l] = map[string]float64{}
			for k := 0; k < overridesPerLane; k++ {
				id, p := r.Intn(n), drawProb(r)
				lane[id] = p
				wire[l][strconv.Itoa(id)] = p
			}
			bs.lanes = append(bs.lanes, lane)
		}
		text := in.spellings[bs.shape][r.Intn(spellingsPerShape)]
		bs.body = mustJSON(map[string]any{"query": text, "assignments": wire})
		in.batches = append(in.batches, bs)
	}
	// Updates walk a seeded permutation of the facts, so two requests that
	// can be in flight together never touch the same fact and the state at
	// every acknowledged seq is a function of the acknowledgements alone.
	perm := r.Perm(n)
	for k := 0; k < withUpdates; k++ {
		u := updateSpec{id: perm[k%n], p: drawProb(r), pair: r.Float64() < pairShare}
		if u.pair {
			f := tid.Fact(u.id)
			u.body = mustJSON(map[string]any{"updates": []map[string]any{
				{"op": "delete", "id": u.id},
				{"op": "insert", "rel": f.Rel, "args": f.Args, "p": u.p},
			}})
		} else {
			u.body = mustJSON(map[string]any{"updates": []map[string]any{{"op": "set", "id": u.id, "p": u.p}}})
		}
		in.updates = append(in.updates, u)
	}
	return in, nil
}

func drawProb(r *rand.Rand) float64 { return probLo + (probHi-probLo)*r.Float64() }

var varPool = []string{"a", "b", "c", "u", "v", "w", "x", "y", "z", "n1", "n2", "t"}

// spell renders q as its j-th spelling: the j-th atom order (cycling through
// all of them) under a random variable renaming. It is the same query shape,
// textually different, so every request exercises parse, normalize and
// fingerprint before the cache lookup. The atom orders are not drawn, because
// NormalizeCQ is not canonical across them (S(?y,?z) & S(?x,?y) fingerprints
// apart from S(?x,?y) & S(?y,?z)): a drawn order would give some seeds one
// more live view than others, and with it more set-up work and live heap.
func spell(q rel.CQ, j int, r *rand.Rand) string {
	names := r.Perm(len(varPool))
	rename := map[string]string{}
	atoms := make([]rel.Atom, 0, len(q.Atoms))
	orders := permutations(len(q.Atoms))
	for _, ai := range orders[j%len(orders)] {
		a := q.Atoms[ai]
		terms := make([]rel.Term, len(a.Terms))
		for j, t := range a.Terms {
			if !t.IsVar {
				terms[j] = t
				continue
			}
			nm, ok := rename[t.Name]
			if !ok {
				nm = varPool[names[len(rename)]]
				rename[t.Name] = nm
			}
			terms[j] = rel.V(nm)
		}
		atoms = append(atoms, rel.NewAtom(a.Rel, terms...))
	}
	return rel.NewCQ(atoms...).String()
}

// schedule draws n ops of the mix from the seed. The kinds are spread evenly
// and in the same positions for every seed — op i is a /batch where i·
// batchShare crosses an integer, an /update (taken in order from the inputs)
// where i·updateShare does, a /query otherwise — so a seed changes which
// spelling and payload an op sends, never how many of each kind.
func (in *serveInputs) schedule(r *rand.Rand, n int, batchShare, updateShare float64, nextUpdate *int) []serveOp {
	crosses := func(i int, share, offset float64) bool {
		return math.Floor(float64(i+1)*share+offset) > math.Floor(float64(i)*share+offset)
	}
	ops := make([]serveOp, n)
	for i := range ops {
		switch {
		case crosses(i, batchShare, 0.5):
			b := r.Intn(len(in.batches))
			ops[i] = serveOp{kind: opBatch, shape: in.batches[b].shape, ref: b, body: in.batches[b].body}
		case crosses(i, updateShare, 0.25) && *nextUpdate < len(in.updates):
			u := *nextUpdate
			*nextUpdate++
			ops[i] = serveOp{kind: opUpdate, ref: u, body: in.updates[u].body}
		default:
			s, sp := r.Intn(len(in.shapes)), r.Intn(spellingsPerShape)
			ops[i] = serveOp{kind: opQuery, shape: s, ref: sp, body: in.bodies[s][sp]}
		}
	}
	return ops
}

// permutations returns every ordering of 0..n-1, in lexicographic order.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for first := 0; first < n; first++ {
		for _, rest := range permutations(n - 1) {
			p := []int{first}
			for _, x := range rest {
				if x >= first {
					x++
				}
				p = append(p, x)
			}
			out = append(out, p)
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are marshalled here
	}
	return b
}
