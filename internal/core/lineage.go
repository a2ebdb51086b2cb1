package core

import (
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// FactEvent is the canonical event name standing for the presence of fact
// fi in lineage circuits over fact variables: the event the TID translation
// (pdb.TID.EventOf) gives fact fi.
func FactEvent(fi int) logic.Event {
	return (*pdb.TID).EventOf(nil, fi)
}

// CQLineage builds the monotone lineage circuit of a conjunctive query over
// the candidate facts of an instance, with one variable per fact (FactEvent):
// the circuit is true under a valuation exactly when the query holds on the
// world keeping the facts whose variable is true.
//
// It prepares the query on the instance's TID translation and walks the
// plan's row program into its d-DNNF with every negative literal replaced by
// true. Because the d-DNNF is decomposable, a certificate holds each
// variable at most once, so for a monotone query the rewritten circuit has
// the same function and the same minimal witnesses: it is a provenance
// circuit, and evaluating it in any absorptive commutative semiring
// (internal/provenance) yields the query's semiring provenance, the Section
// 2.2 connection. Setting the negative literals to true costs determinism,
// so the circuit's probability is not its d-DNNF pass; use ProbabilityTID.
// Options are honoured as in PrepareTID (a supplied decomposition is one of
// the joint graph); EmitLineage is ignored.
func CQLineage(inst *rel.Instance, q rel.CQ, opts Options) (*circuit.Circuit, circuit.Gate, error) {
	pl, _, err := PrepareTID(&pdb.TID{Inst: inst, Probs: make([]float64, inst.NumFacts())}, q, opts)
	if err != nil {
		return nil, 0, err
	}
	c, root := pl.lineage(pl.prog, true)
	return c, root, nil
}

// PossibleTID reports whether q holds in some possible world of the TID with
// positive probability: facts with probability 0 are absent from every such
// world, facts with probability 1 present in all of them.
func PossibleTID(t *pdb.TID, q rel.CQ) (bool, error) {
	possible, _, err := possibleCertainTID(t, q)
	return possible, err
}

// CertainTID reports whether q holds in every positive-probability world of
// the TID.
func CertainTID(t *pdb.TID, q rel.CQ) (bool, error) {
	_, certain, err := possibleCertainTID(t, q)
	return certain, err
}

func possibleCertainTID(t *pdb.TID, q rel.CQ) (possible, certain bool, err error) {
	pl, p, err := PrepareTID(t, q, Options{})
	if err != nil {
		return false, false, err
	}
	return pl.PossibleCertain(p)
}
