package main

import (
	"bufio"
	"math"
	"strings"
	"testing"

	"repro/internal/pdbio"

	"repro/internal/core"
	"repro/internal/logic"
)

// TestRunSweepBatchedAndParallelAgree runs the same sweep through the
// multi-lane batch path and the worker-pool path; both must agree with
// per-point serial evaluation.
func TestRunSweepBatchedAndParallelAgree(t *testing.T) {
	input := `
event e1 0.5
cfact e1 R a
fact 0.8 S a b
fact 0.6 T b
`
	c, p, err := pdbio.ParseInstance(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := pdbio.ParseCQ("R(?x) & S(?x,?y) & T(?y)")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.PrepareCQ(c, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, 0.25, 0.5, 1}
	batched, err := RunSweep(pl, p, "e1", vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	served, err := RunSweep(pl, p, "e1", vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		pv := logic.Prob{}
		for e, pr := range p {
			pv[e] = pr
		}
		pv["e1"] = v
		want, err := pl.Probability(pv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batched[i]-want) > 1e-12 || math.Abs(served[i]-want) > 1e-12 {
			t.Errorf("P(e1)=%v: batch %v, served %v, serial %v", v, batched[i], served[i], want)
		}
	}
}

// TestPossibleCertainAnswersAreExact: possibility and certainty come from
// the plan's reachability pass, not from thresholds on the probability, so
// a query of probability 1e-24 is possible and one of probability 1-1e-13
// is not certain.
func TestPossibleCertainAnswersAreExact(t *testing.T) {
	q, err := pdbio.ParseCQ("R(?x) & S(?x,?y) & T(?y)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ input, want string }{
		{"fact 1e-8 R a\nfact 1e-8 S a b\nfact 1e-8 T b\n", "possible: true\ncertain: false\n"},
		{"fact 0.9999999999999 R a\nfact 1 S a b\nfact 1 T b\n", "possible: true\ncertain: false\n"},
		{"fact 1 R a\nfact 1 S a b\nfact 1 T b\n", "possible: true\ncertain: true\n"},
		{"fact 0 R a\nfact 1 S a b\nfact 1 T b\n", "possible: false\ncertain: false\n"},
	} {
		c, p, err := pdbio.ParseInstance(bufio.NewScanner(strings.NewReader(tc.input)))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.PrepareCQ(c, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Result(p)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := printAnswers(&out, "all", pl, p, res); err != nil {
			t.Fatal(err)
		}
		if _, answers, _ := strings.Cut(out.String(), "\n"); answers != tc.want {
			t.Errorf("instance\n%s: got\n%s want\n%s", tc.input, out.String(), tc.want)
		}
	}
}
