package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pdbio"
)

func TestQuantileNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (sample{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if s[0] != 5 {
		t.Error("quantile sorted the sample in place")
	}
}

func TestBeyondAndHighestTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.90, 10}, {99, 0.90, 9}, {10000, 0.999, 10}} {
		if got := beyond(c.q, c.n); got != c.beyond {
			t.Errorf("beyond(%v, %d) = %d, want %d", c.q, c.n, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{10000, 0.999, true}, {9999, 0.99, true}, {1000, 0.99, true}, {999, 0.95, true}, {100, 0.90, true}, {99, 0.75, true}, {20, 0.50, true}, {19, 0, false}} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestServeInputsDeterministic(t *testing.T) {
	ops := func(seed int64) ([]serveOp, *serveInputs) {
		in, err := newServeInputs(seed, 50)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		return in.schedule(rand.New(rand.NewSource(seed+1)), 400, 0.05, 0.1, &next), in
	}
	a, ina := ops(7)
	b, inb := ops(7)
	c, _ := ops(8)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ina.tid.Probs, inb.tid.Probs) {
		t.Fatal("the same seed gave different op sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same op sequence")
	}
	kinds := map[opKind]int{}
	for _, o := range a {
		kinds[o.kind]++
	}
	if kinds[opQuery] == 0 || kinds[opBatch] == 0 || kinds[opUpdate] == 0 {
		t.Fatalf("op mix %v lacks a kind", kinds)
	}
}

// Every seed must present the same set of plan-cache fingerprints, so that
// set-up work and live heap do not depend on the seed (spell).
func TestSpellingFingerprintsSeedIndependent(t *testing.T) {
	counts := func(seed int64) []int {
		in, err := newServeInputs(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for _, sp := range in.spellings {
			fps := map[string]bool{}
			for _, text := range sp {
				q, err := pdbio.ParseCQ(text)
				if err != nil {
					t.Fatal(err)
				}
				fps[core.FingerprintNormalized(core.NormalizeCQ(q))] = true
			}
			out = append(out, len(fps))
		}
		return out
	}
	want := counts(1)
	for seed := int64(2); seed <= 12; seed++ {
		if got := counts(seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: distinct fingerprints per shape %v, seed 1 %v", seed, got, want)
		}
	}
}

func TestColdStreamDeterministic(t *testing.T) {
	draw := func(seed int64) []string {
		s, err := newColdStream(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 20; i++ {
			op := s.next()
			out = append(out, fmt.Sprint(op.q, op.tid.Inst, op.tid.Probs, op.posterior, op.obsFact, op.present))
		}
		return out
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Fatal("the same seed gave different cold streams")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Fatal("different seeds gave the same cold stream")
	}
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	in, err := newServeInputs(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rf := newReference(in, in.tid)
	want, err := rf.query(0)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	c := newChecker(rf, rep)
	q := serveOp{kind: opQuery, shape: 0}
	if !c.check(q, &opResult{status: 200, prob: want}, "right") || !rep.correct() {
		t.Fatalf("a right answer failed the check: %v", rep.checkErrs)
	}
	if c.check(q, &opResult{status: 200, prob: want + 1e-6}, "wrong") || rep.correct() {
		t.Fatal("a wrong /query answer passed the check")
	}

	lanes, err := rf.batch(in.batches[0])
	if err != nil {
		t.Fatal(err)
	}
	rep = newReport()
	c = newChecker(rf, rep)
	b := serveOp{kind: opBatch, shape: in.batches[0].shape, ref: 0}
	bad := append([]float64(nil), lanes...)
	bad[len(bad)-1] += 1e-6
	if !c.check(b, &opResult{status: 200, probs: lanes}, "right") {
		t.Fatalf("right lanes failed the check: %v", rep.checkErrs)
	}
	if c.check(b, &opResult{status: 200, probs: bad}, "wrong") || rep.correct() {
		t.Fatal("a wrong /batch lane passed the check")
	}

	s, err := newColdStream(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		op := s.next()
		if !op.small || op.posterior {
			continue
		}
		o, err := runColdOp(op)
		if err != nil {
			t.Fatal(err)
		}
		rep = newReport()
		checkCold(op, o, i, rep)
		if !rep.correct() {
			t.Fatalf("a right cold answer failed the check: %v", rep.checkErrs)
		}
		o.prob += 1e-6
		checkCold(op, o, i, rep)
		if rep.correct() {
			t.Fatal("a wrong cold answer passed the enumeration check")
		}
		o.prob, o.mass = o.prob-1e-6, 1.01
		rep = newReport()
		checkCold(op, o, i, rep)
		if rep.correct() {
			t.Fatal("a wrong total mass passed the check")
		}
		return
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, defs[i], got[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, and requires a
// correct result line carrying exactly the metrics of the mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"serve-read", "serve-mixed", "plan-cold"} {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "5", "--seconds", "0.6", "--trace", trace, "--workdir", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w, trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %s: %+v", w, trace, res)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace %s: metric %s = %+v", w, trace, d.name, m)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, d.name, m.Value)
				}
			}
		}
	}
}
