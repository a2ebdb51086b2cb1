package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchEntry is one benchmark of a BENCH_BASELINE.json file as
// scripts/bench.sh records it. The spread fields are absent for entries
// recorded before the script kept them.
type benchEntry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	NsMedian    *float64 `json:"ns_median"`
	NsMin       *float64 `json:"ns_min"`
	NsMax       *float64 `json:"ns_max"`
	AllocsPerOp float64  `json:"allocs_per_op"`
	Runs        int      `json:"runs"`
}

func loadBaseline(path string) (map[string]benchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Benchmarks map[string]benchEntry `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Benchmarks, nil
}

// median is the entry's median time per op, or its mean when no spread was
// recorded.
func (e benchEntry) median() float64 {
	if e.NsMedian != nil {
		return *e.NsMedian
	}
	return e.NsPerOp
}

// verdict places a new median against the old entry's recorded min–max
// spread: a time change counts only outside it.
func verdict(old benchEntry, newMedian float64) string {
	switch {
	case old.NsMin == nil || old.NsMax == nil || old.Runs < 2:
		return "no spread"
	case newMedian > *old.NsMax:
		return "SLOWER"
	case newMedian < *old.NsMin:
		return "faster"
	default:
		return "within spread"
	}
}

// compareMain implements `benchtab -compare [-allocs-gate PCT] OLD NEW`: it
// prints, for every benchmark recorded in both baseline files, the old and
// new median time per op, the change, whether the new median leaves the old
// run's min–max spread, and allocs/op on both sides. Time changes are only
// reported. With -allocs-gate PCT > 0 the exit status is 1 when some
// benchmark's allocs/op rose more than PCT percent over OLD.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchtab -compare", flag.ContinueOnError)
	gate := fs.Float64("allocs-gate", 0, "fail when allocs/op rise more than this many percent (0: report only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchtab -compare [-allocs-gate PCT] OLD.json NEW.json")
		return 2
	}
	old, err := loadBaseline(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		return 2
	}
	cur, err := loadBaseline(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		return 2
	}
	var names []string
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-60s %14s %14s %8s  %-13s %12s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ", "time", "old allocs", "new allocs")
	failed := 0
	for _, name := range names {
		o, n := old[name], cur[name]
		om, nm := o.median(), n.median()
		delta := 0.0
		if om > 0 {
			delta = 100 * (nm - om) / om
		}
		allocs := ""
		if *gate > 0 && n.AllocsPerOp > o.AllocsPerOp*(1+*gate/100) {
			allocs = "  ALLOCS ROSE"
			failed++
		}
		fmt.Fprintf(stdout, "%-60s %14.0f %14.0f %+7.1f%%  %-13s %12.1f %12.1f%s\n",
			name, om, nm, delta, verdict(o, nm), o.AllocsPerOp, n.AllocsPerOp, allocs)
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "%d benchmark(s) allocate more than %.0f%% above %s\n", failed, *gate, fs.Arg(0))
		return 1
	}
	return 0
}
