package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of the untraced run. They are named by role
// so that every workload reports every one of them: the read is /query on
// the serve workloads, timed from its intended send time, and one cold
// ProbabilityTID call on plan-cold, timed in process CPU; the heavy op is a
// /batch on the serve workloads and one cond posterior on plan-cold, both
// in process CPU. CPU time and live heap are what steal on a shared VM does
// not move; the wall-clock tails and rates are printed above the result
// line and reported per layer, and README.md says why they are not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"read_p50_us", "us"},
	{"heavy_cpu_us", "us"},
}

// perLayer are the traced run's metrics. A layer the workload bypasses
// reports 0: no work was done there.
var perLayer = []metricDef{
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.backlog_grew", "count"},
	{"client.read_p50_us", "us"},
	{"client.read_tail_us", "us"},
	{"client.heavy_p50_us", "us"},
	{"client.heavy_tail_us", "us"},
	{"client.update_p50_us", "us"},
	{"client.update_p99_us", "us"},
	{"server.query.handler_p50_us", "us"},
	{"server.query.outside_p50_us", "us"},
	{"server.query.parse_us", "us"},
	{"server.query.plan_us", "us"},
	{"server.query.eval_us", "us"},
	{"server.query.write_us", "us"},
	{"server.query.residual_us", "us"},
	{"server.batch.handler_p50_us", "us"},
	{"server.batch.outside_p50_us", "us"},
	{"server.batch.parse_us", "us"},
	{"server.batch.plan_us", "us"},
	{"server.batch.lanes_us", "us"},
	{"server.batch.eval_us", "us"},
	{"server.batch.write_us", "us"},
	{"server.batch.residual_us", "us"},
	{"server.update.handler_p50_us", "us"},
	{"server.update.outside_p50_us", "us"},
	{"server.update.parse_us", "us"},
	{"server.update.apply_us", "us"},
	{"server.update.write_us", "us"},
	{"server.update.residual_us", "us"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.frozen_hit_ratio", "ratio"},
	{"server.prepares", "count"},
	{"server.updates_per_ingest_commit", "count"},
	{"pdbio.parse_cq_us", "us"},
	{"core.normalize_us", "us"},
	{"core.batch_eval_us_per_lane", "us"},
	{"core.frozen_prepare_p50_ms", "ms"},
	{"core.joint_graph_ms", "ms"},
	{"treedec.decompose_ms", "ms"},
	{"treedec.nice_ms", "ms"},
	{"core.prepare_ms", "ms"},
	{"core.first_eval_ms", "ms"},
	{"core.allocs_per_op", "count"},
	{"core.bytes_per_op", "B"},
	{"core.nice_nodes_p50", "count"},
	{"core.width_max", "count"},
	{"cond.posterior_ms", "ms"},
	{"ledger.cold_residual_ms", "ms"},
	{"incr.commit_p50_us", "us"},
	{"incr.commit_p99_us", "us"},
	{"incr.rows_per_update", "count"},
	{"incr.nodes_per_update", "count"},
	{"incr.short_circuit_ratio", "ratio"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"wal.appends_per_flush", "count"},
	{"wal.bytes_per_update", "B"},
	{"wal.snapshots", "count"},
	{"wal.snapshot_ms", "ms"},
	{"wal.replay_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// report accumulates one run's outcome: op counts, check failures, metric
// values and the human-readable lines printed above the result.
type report struct {
	attempted int
	failed    int
	checkErrs []string
	values    map[string]float64
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// note adds a human-readable line to the output block.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkf records a failed output check; any one makes the run incorrect.
func (r *report) checkf(format string, args ...any) {
	const keep = 20 // enough to diagnose, bounded when everything is wrong
	if len(r.checkErrs) < keep {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	} else if len(r.checkErrs) == keep {
		r.checkErrs = append(r.checkErrs, "... further check failures omitted")
	}
}

func (r *report) correct() bool { return len(r.checkErrs) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable block and, as the last line, the result
// object carrying the metric set of the run mode: every end-to-end metric
// untraced, every per-layer metric traced.
func (r *report) write(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintln(w, "# CHECK FAILED: "+e)
	}
	line := resultLine{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
