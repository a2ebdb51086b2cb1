package core

import (
	"fmt"
	"math"

	"repro/internal/core/kernel"
	"repro/internal/logic"
)

// LaneErrors reports per-lane failures of a batched evaluation: entry i is
// the error of lane i, nil for lanes that evaluated fine. A batch whose
// error is a LaneErrors still carries valid probabilities for the healthy
// lanes (failed lanes hold NaN), so one bad assignment in a sweep does not
// poison the others.
type LaneErrors []error

func (le LaneErrors) Error() string {
	n, first := 0, ""
	for i, err := range le {
		if err == nil {
			continue
		}
		if n == 0 {
			first = fmt.Sprintf("lane %d: %v", i, err)
		}
		n++
	}
	if n <= 1 {
		return "core: " + first
	}
	return fmt.Sprintf("core: %d of %d lanes failed (%s, ...)", n, len(le), first)
}

// Failed reports whether lane i carries an error.
func (le LaneErrors) Failed(i int) bool { return le[i] != nil }

// sanitizeLanes validates every lane of ps. Invalid lanes are recorded in the
// returned error slice (nil when every lane is valid) and replaced by an
// empty map — the default-0.5 weights — so the shared dynamic program stays
// finite; their outputs are overwritten with NaN afterwards.
func sanitizeLanes(ps []logic.Prob) ([]logic.Prob, []error) {
	var errs []error
	clean := ps
	for i, p := range ps {
		if err := p.Validate(); err == nil {
			continue
		} else {
			if errs == nil {
				errs = make([]error, len(ps))
				clean = append([]logic.Prob(nil), ps...)
			}
			errs[i] = err
			clean[i] = logic.Prob{}
		}
	}
	return clean, errs
}

// laneError converts a per-lane error slice into a single error value: nil
// when no lane failed, a LaneErrors otherwise.
func laneError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return LaneErrors(errs)
		}
	}
	return nil
}

// allLanesNaN reports whether every lane failed validation and, if so,
// returns the all-NaN output — the batch paths skip the dynamic program
// entirely when no lane could produce a value.
func allLanesNaN(errs []error) []float64 {
	if errs == nil {
		return nil
	}
	for _, err := range errs {
		if err == nil {
			return nil
		}
	}
	out := make([]float64, len(errs))
	for l := range out {
		out[l] = math.NaN()
	}
	return out
}

// ProbabilityBatch evaluates the plan under B = len(ps) event probability
// maps in one pass and returns the B exact query probabilities, out[i]
// matching what Probability(ps[i]) returns (up to float summation order).
//
// The dynamic program's row structure depends only on the compiled plan,
// never on the probabilities, so the batch path runs the plan's row program
// once and carries a weight lane per assignment through every row: dense
// lane blocks driven through the kernel primitives, with no map traffic at
// all, so the per-assignment cost of a parameter sweep collapses to a
// handful of float operations per row.
//
// Lanes fail independently: an invalid probability map, or a per-lane mass
// drift, marks only that lane. When any lane fails, the returned error is a
// LaneErrors whose i-th entry explains lane i (nil for healthy lanes), the
// failed lanes' outputs are NaN, and every other lane's probability is still
// valid. The error is non-nil only when at least one lane failed.
//
// Safe for concurrent calls.
func (pl *Plan) ProbabilityBatch(ps []logic.Prob) ([]float64, error) {
	B := len(ps)
	if B == 0 {
		return nil, nil
	}
	st := pl.getState()
	defer pl.putState(st)
	// Validation is fused into the weight fill: one pass over each lane's
	// map both checks and scatters it.
	pe, lerrs := pl.fillLaneWeights(st, ps)
	if nan := allLanesNaN(lerrs); nan != nil {
		return nan, LaneErrors(lerrs)
	}
	prog := pl.prog
	out := make([]float64, B)
	totals := make([]float64, B)
	root := pl.runBatchProg(st, prog, pe, B)
	for i, set := range prog.rootSets {
		v := root[i*B : i*B+B]
		kernel.AddTo(totals, v)
		if pl.accept[set] {
			kernel.AddTo(out, v)
		}
	}
	st.arena.Put(root)
	finishLanes(out, totals, &lerrs)
	return out, laneError(lerrs)
}

// finishLanes applies the shared per-lane epilogue of every batch path: NaN
// for lanes already failed, the massEps drift check (recorded per lane), and
// clamping of floating noise on healthy lanes. lerrs is allocated on first
// failure.
func finishLanes(out, totals []float64, lerrs *[]error) {
	for l, total := range totals {
		if *lerrs != nil && (*lerrs)[l] != nil {
			out[l] = math.NaN()
			continue
		}
		if massDrifted(total) {
			if *lerrs == nil {
				*lerrs = make([]error, len(out))
			}
			(*lerrs)[l] = errMassDrift(total)
			out[l] = math.NaN()
			continue
		}
		// Clamp floating noise.
		if out[l] < 0 {
			out[l] = 0
		}
		if out[l] > 1 {
			out[l] = 1
		}
	}
}
