package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdbio"
	"repro/internal/rel"
	"repro/internal/server"
)

// runServe runs a serve workload. Untraced: set up setupRounds times on one
// P (keeping the last pdbd; set-up is timed in process CPU time, which steal
// on a shared VM does not inflate), then segments of a fixed-rate phase for
// the latencies alternating with the CPU probe, then the capacity ladder.
// Traced: an untraced reference session and a traced session, each on a
// fresh pdbd at the fixed rate; the traced one yields the ledger.
func runServe(cfg runConfig, wl serveWorkload, rep *report) error {
	sr, err := newServeRun(cfg, wl)
	if err != nil {
		return err
	}
	rep.note("pdbd durability: %s; instance %d facts in %d chains; %d senders", walFlushPolicy, sr.in.tid.NumFacts(), chainsK, senders)
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return sr.traced(total, rep)
	}
	var setups []float64
	var d *pdbd
	for round := 0; round < setupRounds; round++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		oneP(func() {
			c0 := cpuTime()
			d, err = sr.start(false, round)
			setups = append(setups, (cpuTime() - c0).Seconds())
		})
		if err != nil {
			return err
		}
	}
	rep.set("setup_s", median(setups))
	fixed := time.Duration(float64(total) * wl.fixedShare)
	probe := time.Duration(float64(total) * wl.probeShare)
	var fixedPhases []*phase
	var ps probeSamples
	for seg := 0; seg < segments; seg++ {
		ops, dues := sr.fixedOps(fixed / segments)
		fixedPhases = append(fixedPhases, sr.run(d, ops, dues))
		sr.probe(d, probe/segments, &ps)
	}
	heavyCPU := ps.heavies.quantile(0.5)
	rep.set("heavy_cpu_us", heavyCPU)
	rep.note("process CPU per /query %.1fus, per /batch %.1fus (%d chunks, p25 %.1fus, p75 %.1fus); closed-loop /query throughput on %d senders, one P %.0f 1/s",
		ps.reads.quantile(0.5), heavyCPU, len(ps.heavies), ps.heavies.quantile(0.25), ps.heavies.quantile(0.75), senders, ps.rates.quantile(0.5))
	if ladder := total - fixed - probe; ladder > 0 {
		rep.note("query_capacity_rps %.0f 1/s (/query p99 <= %v, backlog not growing)", sr.ladder(d, ladder, rep), querySLO)
	}
	q, b, u := latenciesOf(fixedPhases, opQuery), latenciesOf(fixedPhases, opBatch), latenciesOf(fixedPhases, opUpdate)
	rep.set("read_p50_us", q.windowed(0.5))
	grew := false
	for _, ph := range fixedPhases {
		grew = grew || backlogGrew(ph.timings)
	}
	rep.note("fixed phase: %.0f ops/s offered for %.1fs in %d segments, backlog grew %v", wl.rate, fixed.Seconds(), segments, grew)
	tailNote(rep, "query_p50_us", "query_p99_us", q, 0.99)
	tailNote(rep, "batch_p50_ms", "batch_p90_ms", b.scale(1e-3), 0.90)
	if len(u) > 0 {
		tailNote(rep, "update_p50_us", "update_p99_us", u, 0.99)
	}
	sr.finish(d, rep)
	sr.phases = nil // the live heap is pdbd's, not the generator's records
	rep.set("heap_live_mb", heapLiveMB())
	return d.close()
}

// latenciesOf returns the intended-time latencies (µs) of the ops of kind k
// over phases, in the order sent.
func latenciesOf(phases []*phase, k opKind) sample {
	var s sample
	for _, ph := range phases {
		s = append(s, ph.latencies(k)...)
	}
	return s
}

// tailNote prints a latency sample under its per-workload metric names (whose
// suffix gives the unit) with its sample count and how many samples lie
// beyond the tail percentile.
func tailNote(rep *report, p50Name, tailName string, s sample, q float64) {
	rep.note("%s %.4g, %s %.4g (n=%d, %d beyond; windowed medians %.4g and %.4g)", p50Name, s.quantile(0.5),
		tailName, s.quantile(q), len(s), beyond(q, len(s)), s.windowed(0.5), s.windowed(q))
	if top, ok := highestTail(len(s)); ok && top != q {
		rep.note("  highest percentile with %d samples beyond it: p%g = %.4g", minBeyond, 100*top, s.quantile(top))
	}
	if beyond(q, len(s)) < minBeyond {
		rep.note("WARNING: %s rests on fewer than %d samples beyond it", tailName, minBeyond)
	}
}

// finish counts the run's ops, checks every answer, and kills and replays
// the WAL. It returns the replay time.
func (sr *serveRun) finish(d *pdbd, rep *report) time.Duration {
	n, failed := 0, 0
	for _, ph := range sr.phases {
		n += len(ph.ops)
		failed += ph.failed()
	}
	rep.attempted += n
	rep.failed += failed
	rep.note("error_ratio %.4g (%d of %d ops failed)", ratio(float64(failed), float64(n)), failed, n)
	acks := sr.acks(rep)
	if sr.wl.updateShare == 0 {
		sr.checkStatic(rep)
	} else {
		sr.checkSampled(acks, rep, 8)
	}
	replay := sr.checkRecovery(d, acks, rep)
	rep.note("wal replay after kill: %.2fms", ms(replay))
	return replay
}

// traced runs the untraced reference session and then the traced one.
func (sr *serveRun) traced(total time.Duration, rep *report) error {
	ref := time.Duration(float64(total) * 0.4)
	d, err := sr.start(false, 0)
	if err != nil {
		return err
	}
	ops, dues := sr.fixedOps(ref)
	ph := sr.run(d, ops, dues)
	refQuery := ph.latencies(opQuery).quantile(0.5)
	rep.set("client.read_p50_us", ph.latencies(opQuery).windowed(0.5))
	rep.set("client.read_tail_us", ph.latencies(opQuery).windowed(0.99))
	rep.set("client.heavy_p50_us", ph.latencies(opBatch).windowed(0.5))
	rep.set("client.heavy_tail_us", ph.latencies(opBatch).windowed(0.90))
	if u := ph.latencies(opUpdate); len(u) > 0 {
		rep.set("client.update_p50_us", u.quantile(0.5))
		rep.set("client.update_p99_us", u.quantile(0.99))
	}
	sr.finish(d, rep)
	if err := d.close(); err != nil {
		return err
	}

	sr.phases, sr.nextUpdate = nil, 0 // the traced session starts from the loaded instance again
	if d, err = sr.start(true, 1); err != nil {
		return err
	}
	before := takeCounters(d)
	ops, dues = sr.fixedOps(total - ref)
	ph = sr.run(d, ops, dues)
	after := takeCounters(d)
	spans := &spanLog{}
	sr.ledger(d, ph, spans, rep)
	layerCounters(before, after, rep)
	rep.set("trace.overhead_ratio", ratio(ph.latencies(opQuery).quantile(0.5), refQuery))
	sr.parseMicro(rep)
	rep.set("wal.replay_ms", ms(sr.finish(d, rep)))
	spans.ledgerNotes(rep, len(ph.ops), "us")
	path := filepath.Join(sr.cfg.workdir, "trace-"+sr.cfg.workload+".jsonl")
	if err := spans.writeFile(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return d.close()
}

// stageLayer attributes a server stage to the module doing its work.
func stageLayer(k opKind, stage string, cached bool) string {
	switch {
	case stage == "eval" && k == opQuery:
		return "incr" // live view read
	case stage == "eval":
		return "core" // lane kernels
	case stage == "plan" && k == opBatch && !cached:
		return "core" // frozen snapshot re-Prepare
	case stage == "apply":
		return "incr+wal" // delta commit, then the group-commit fsync wait
	}
	return "server"
}

var endpointStages = map[opKind][]string{
	opQuery:  {"parse", "plan", "eval", "write"},
	opBatch:  {"parse", "plan", "lanes", "eval", "write"},
	opUpdate: {"parse", "apply", "write"},
}

// ledger rebuilds each op's spans — the root from due time to done, the
// loadgen wait, the handler and the server's stages tiling it — and reports
// per endpoint the handler time, the outside residual (client-observed minus
// handler), each stage, and what of the handler no stage covers.
func (sr *serveRun) ledger(d *pdbd, ph *phase, spans *spanLog, rep *report) {
	type acc struct {
		client, handler, outside, residual sample
		stages                             map[string]sample
	}
	accs := map[opKind]*acc{}
	var late sample
	missing := 0
	for i, o := range ph.ops {
		t := ph.timings[i]
		late = append(late, us(t.late()))
		h := d.tracer.rec(ph.firstID + i)
		if h == nil || h.end.IsZero() || len(h.stages) == 0 {
			missing++
			continue
		}
		a := accs[o.kind]
		if a == nil {
			a = &acc{stages: map[string]sample{}}
			accs[o.kind] = a
		}
		id := ph.firstID + i
		hs, he := h.start.Sub(ph.base), h.end.Sub(ph.base)
		root := spans.add(id, -1, opPaths[o.kind], "client", t.due, t.done)
		spans.add(id, root, "send-wait", "loadgen", t.due, t.start)
		hid := spans.add(id, root, "Server.ServeHTTP", "server", hs, he)
		at, sum := hs, time.Duration(0)
		for _, st := range h.stages {
			spans.add(id, hid, st.name, stageLayer(o.kind, st.name, h.cached), at, at+st.dur)
			at += st.dur
			sum += st.dur
			a.stages[st.name] = append(a.stages[st.name], us(st.dur))
		}
		a.client = append(a.client, us(t.latency()))
		a.handler = append(a.handler, us(he-hs))
		a.outside = append(a.outside, us(t.latency()-(he-hs)))
		a.residual = append(a.residual, us(he-hs-sum))
	}
	rep.set("loadgen.late_p50_us", late.quantile(0.5))
	rep.set("loadgen.late_p99_us", late.quantile(0.99))
	if backlogGrew(ph.timings) {
		rep.set("loadgen.backlog_grew", 1)
	}
	if missing > 0 {
		rep.checkf("%d of %d traced ops have no handler record", missing, len(ph.ops))
	}
	for _, k := range []opKind{opQuery, opBatch, opUpdate} {
		a := accs[k]
		if a == nil {
			continue
		}
		ep := "server." + opPaths[k][1:] + "."
		rep.set(ep+"handler_p50_us", a.handler.quantile(0.5))
		rep.set(ep+"outside_p50_us", a.outside.quantile(0.5))
		rep.set(ep+"residual_us", a.residual.quantile(0.5))
		sum := a.outside.quantile(0.5) + a.residual.quantile(0.5)
		line := ""
		for _, st := range endpointStages[k] {
			v := a.stages[st].quantile(0.5)
			rep.set(ep+st+"_us", v)
			sum += v
			line += fmt.Sprintf(" %s=%.1f", st, v)
		}
		c := a.client.quantile(0.5)
		rep.note("ledger %s p50 (us, n=%d): client=%.1f = outside=%.1f + stages[%s ] + unspanned=%.1f; sum of medians %.1f, gap %.1f (%.1f%%)",
			opPaths[k], len(a.client), c, a.outside.quantile(0.5), line, a.residual.quantile(0.5), sum, c-sum, 100*ratio(c-sum, c))
	}
}

// counters is a snapshot of the server, store, WAL and registry counters.
type counters struct {
	st               server.Statsz
	evalSum          float64
	frozen, commit   obs.HistogramSnapshot
	fsync, snapshots obs.HistogramSnapshot
	logged           int64
}

func takeCounters(d *pdbd) counters {
	return counters{
		st:        d.srv.Stats(),
		evalSum:   d.reg.Histogram("pdbd_eval_seconds", "", nil).Snapshot().Sum,
		frozen:    d.reg.Histogram("pdbd_prepare_seconds", "", nil, "kind", "frozen").Snapshot(),
		commit:    d.reg.Histogram("incr_commit_seconds", "", nil).Snapshot(),
		fsync:     d.reg.Histogram("wal_fsync_seconds", "", nil).Snapshot(),
		snapshots: d.reg.Histogram("wal_snapshot_seconds", "", nil).Snapshot(),
		logged:    d.logged.Load(),
	}
}

// histDelta is the histogram of the observations made between two snapshots.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts)), Sum: b.Sum - a.Sum, Count: b.Count - a.Count}
	for i := range b.Counts {
		out.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			out.Counts[i] -= a.Counts[i]
		}
	}
	return out
}

// layerCounters reports the per-layer counters of the traced phase as
// differences of the snapshots taken around it.
func layerCounters(a, b counters, rep *report) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	sa, sb := a.st, b.st
	rep.set("server.plan_cache_hit_ratio", ratio(d(sa.CacheHits, sb.CacheHits), d(sa.CacheHits, sb.CacheHits)+d(sa.CacheMisses, sb.CacheMisses)))
	fh, fm := d(sa.FrozenHits, sb.FrozenHits), d(sa.FrozenMisses, sb.FrozenMisses)
	rep.set("server.frozen_hit_ratio", ratio(fh, fh+fm))
	rep.note("frozen cache: %.0f hits, %.0f misses; plan cache: %.0f hits, %.0f misses", fh, fm,
		d(sa.CacheHits, sb.CacheHits), d(sa.CacheMisses, sb.CacheMisses))
	rep.set("server.prepares", d(sa.Prepares, sb.Prepares))
	updates := d(sa.Store.Updates, sb.Store.Updates)
	rep.set("server.updates_per_ingest_commit", ratio(d(sa.Updates, sb.Updates), d(sa.IngestFlushes, sb.IngestFlushes)))
	rep.set("core.batch_eval_us_per_lane", 1e6*ratio(b.evalSum-a.evalSum, d(sa.BatchLanes, sb.BatchLanes)))
	// The frozen-prepare quantile covers the warm-up's prepares too: on a
	// run without writes they are the only ones.
	rep.set("core.frozen_prepare_p50_ms", 1e3*b.frozen.Quantile(0.5))
	commits := histDelta(a.commit, b.commit)
	if commits.Count > 0 {
		rep.set("incr.commit_p50_us", 1e6*commits.Quantile(0.5))
		rep.set("incr.commit_p99_us", 1e6*commits.Quantile(0.99))
	}
	rep.set("incr.rows_per_update", ratio(d(sa.Store.RowsRecomputed, sb.Store.RowsRecomputed), updates))
	rep.set("incr.nodes_per_update", ratio(d(sa.Store.NodesRecomputed, sb.Store.NodesRecomputed), updates))
	rep.set("incr.short_circuit_ratio", ratio(d(sa.Store.SpinesShortCircuited, sb.Store.SpinesShortCircuited), d(sa.Store.NodesRecomputed, sb.Store.NodesRecomputed)))
	fs := histDelta(a.fsync, b.fsync)
	if fs.Count > 0 {
		rep.set("wal.fsync_p50_us", 1e6*fs.Quantile(0.5))
		rep.set("wal.fsync_p99_us", 1e6*fs.Quantile(0.99))
	}
	wa, wb := sa.Durability, sb.Durability
	rep.set("wal.appends_per_flush", ratio(d(wa.Appends, wb.Appends), d(wa.Flushes, wb.Flushes)))
	rep.set("wal.bytes_per_update", ratio(float64(b.logged-a.logged), updates))
	// Snapshots include the baseline one every set-up writes.
	rep.set("wal.snapshots", float64(wb.Snapshots))
	rep.set("wal.snapshot_ms", 1e3*ratio(b.snapshots.Sum, float64(b.snapshots.Count)))
}

// parseMicro times pdbio.ParseCQ, and core.NormalizeCQ with
// FingerprintNormalized, on the workload's query texts in isolation.
func (sr *serveRun) parseMicro(rep *report) {
	var texts []string
	for _, sp := range sr.in.spellings {
		texts = append(texts, sp...)
	}
	const rounds = 400
	parsed := make([]rel.CQ, len(texts))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, s := range texts {
			q, err := pdbio.ParseCQ(s)
			if err != nil {
				rep.checkf("ParseCQ(%q): %v", s, err)
				return
			}
			parsed[i] = q
		}
	}
	parse := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range parsed {
			core.FingerprintNormalized(core.NormalizeCQ(q))
		}
	}
	norm := time.Since(t0)
	n := float64(rounds * len(texts))
	rep.set("pdbio.parse_cq_us", us(parse)/n)
	rep.set("core.normalize_us", us(norm)/n)
}
