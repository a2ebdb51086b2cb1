package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// serveWorkload is an open-loop traffic mix against in-process pdbd.
type serveWorkload struct {
	rate        float64 // offered ops/s of the fixed-rate phase
	batchShare  float64 // share of ops that are 16-lane /batch requests
	updateShare float64 // share of ops that are /update requests
	// Parts of --seconds: the fixed-rate phase, then the closed-loop CPU
	// probe, then the /query capacity ladder for whatever remains.
	fixedShare, probeShare float64
}

// The fixed rates leave both senders mostly idle, so latency reflects
// pdbd's work rather than queueing in the generator, and the shares put at
// least 100 /batch (and on serve-mixed 1000 /update) requests in the fixed
// phase of a 36s run, enough for their tails.
var (
	serveRead  = serveWorkload{rate: 1000, batchShare: 0.011, fixedShare: 0.5, probeShare: 0.25}
	serveMixed = serveWorkload{rate: 600, batchShare: 0.0115, updateShare: 0.115, fixedShare: 0.45, probeShare: 0.55}
)

const (
	senders = 2 // = nproc of the reference VM; also the connection limit
	// querySLO is the /query p99 a capacity-ladder rung must meet.
	querySLO    = 10 * time.Millisecond
	setupRounds = 5
	// segments is how many slices the fixed phase and the CPU probe are cut
	// into, alternating, so that both sample the host across the whole run
	// rather than in one stretch of it.
	segments = 5
)

// opResult is one request's outcome, decoded after its completion time was
// taken; only what the checks need is kept.
type opResult struct {
	err      error // transport or decoding failure
	status   int
	prob     float64   // /query
	probs    []float64 // /batch lanes
	laneErrs int       // /batch lanes that failed
	applied  int       // /update
	updErr   string
	seq      uint64
}

func (o *opResult) ok() bool {
	return o.err == nil && o.status == 200 && o.laneErrs == 0 && o.updErr == ""
}

func decodeResult(k opKind, status int, body []byte, err error) opResult {
	o := opResult{status: status, err: err}
	if err != nil || status != 200 {
		return o
	}
	switch k {
	case opQuery:
		var r struct {
			Probability float64 `json:"probability"`
			Seq         uint64  `json:"seq"`
		}
		o.err = json.Unmarshal(body, &r)
		o.prob, o.seq = r.Probability, r.Seq
	case opBatch:
		var r struct {
			Probabilities []float64 `json:"probabilities"`
			Errors        []string  `json:"errors"`
			Seq           uint64    `json:"seq"`
		}
		o.err = json.Unmarshal(body, &r)
		o.probs, o.seq = r.Probabilities, r.Seq
		for _, e := range r.Errors {
			if e != "" {
				o.laneErrs++
			}
		}
	case opUpdate:
		var r struct {
			Seq     uint64 `json:"seq"`
			Applied int    `json:"applied"`
			Error   string `json:"error"`
		}
		o.err = json.Unmarshal(body, &r)
		o.applied, o.updErr, o.seq = r.Applied, r.Error, r.Seq
	}
	return o
}

// phase is one open-loop run of a schedule against one pdbd.
type phase struct {
	ops     []serveOp
	timings []timing
	results []opResult
	base    time.Time
	firstID int // op id of ops[0]; ids are unique within a session
}

// runPhase sends ops at the given offsets from n senders and waits for
// every response.
func (d *pdbd) runPhase(ops []serveOp, dues []time.Duration, firstID, n int) *phase {
	ph := &phase{ops: ops, results: make([]opResult, len(ops)), base: time.Now(), firstID: firstID}
	ph.timings = openLoop(ph.base, dues, n, func(i int) time.Time {
		code, body, err := d.post(opPaths[ops[i].kind], ops[i].body, firstID+i)
		done := time.Now()
		ph.results[i] = decodeResult(ops[i].kind, code, body, err)
		return done
	})
	return ph
}

// latencies returns the intended-time latencies (µs) of the ops of kind k.
func (ph *phase) latencies(k opKind) sample {
	var s sample
	for i, o := range ph.ops {
		if o.kind == k {
			s = append(s, us(ph.timings[i].latency()))
		}
	}
	return s
}

// failed counts ops that did not succeed completely.
func (ph *phase) failed() int {
	n := 0
	for i := range ph.results {
		if !ph.results[i].ok() {
			n++
		}
	}
	return n
}

// serveRun is one serve workload run: its inputs, the pdbd under test and
// the phases sent to it.
type serveRun struct {
	cfg        runConfig
	wl         serveWorkload
	in         *serveInputs
	r          *rand.Rand
	nextUpdate int
	nextID     int
	phases     []*phase
}

func newServeRun(cfg runConfig, wl serveWorkload) (*serveRun, error) {
	// Enough updates for the whole run at any rate up to maxOpsPerSec.
	const maxOpsPerSec = 20000
	in, err := newServeInputs(cfg.seed, int(cfg.seconds*maxOpsPerSec*wl.updateShare)+64)
	if err != nil {
		return nil, err
	}
	return &serveRun{cfg: cfg, wl: wl, in: in, r: rand.New(rand.NewSource(cfg.seed + 1))}, nil
}

// start builds a pdbd over the workload's instance in a fresh data dir and
// warms it, closed-loop: every spelling twenty times, then every /batch
// payload once, so connections, caches and the allocator are warm.
func (sr *serveRun) start(traced bool, round int) (*pdbd, error) {
	dir := filepath.Join(sr.cfg.workdir, fmt.Sprintf("pdbd-%d-%d", sr.cfg.seed, round))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startPDBD(sr.in.tid, dir, traced, hotShapes)
	if err != nil {
		return nil, err
	}
	warm := func(path string, body []byte) error {
		code, b, err := d.post(path, body, -1)
		if err != nil {
			return err
		}
		if code != 200 {
			return fmt.Errorf("warm-up %s: %d %s", path, code, b)
		}
		return nil
	}
	for rep := 0; rep < 20; rep++ {
		for _, bodies := range sr.in.bodies {
			for _, b := range bodies {
				if err := warm("/query", b); err != nil {
					d.close()
					return nil, err
				}
			}
		}
	}
	for _, b := range sr.in.batches {
		if err := warm("/batch", b.body); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// fixedOps draws the fixed-rate phase's schedule.
func (sr *serveRun) fixedOps(dur time.Duration) ([]serveOp, []time.Duration) {
	n := int(dur.Seconds() * sr.wl.rate)
	ops := sr.in.schedule(sr.r, n, sr.wl.batchShare, sr.wl.updateShare, &sr.nextUpdate)
	return ops, uniformDues(n, sr.wl.rate, 0)
}

func (sr *serveRun) run(d *pdbd, ops []serveOp, dues []time.Duration) *phase {
	return sr.runOn(d, ops, dues, senders)
}

func (sr *serveRun) runOn(d *pdbd, ops []serveOp, dues []time.Duration, n int) *phase {
	ph := d.runPhase(ops, dues, sr.nextID, n)
	sr.nextID += len(ops)
	sr.phases = append(sr.phases, ph)
	return ph
}

// ladderRate is rung k of the fixed offered-rate grid: 6% steps from 2000/s.
func ladderRate(k int) float64 { return 2000 * math.Pow(1.06, float64(k)) }

// ladder finds the highest rung at which /query p99 stays within querySLO,
// every op succeeds and the backlog does not grow. It climbs the grid in
// coarse steps to the first failing rung, then bisects the grid between the
// last passing rung and that one.
func (sr *serveRun) ladder(d *pdbd, budget time.Duration, rep *report) float64 {
	const coarse, maxRungs, maxK = 8, 9, 40
	rungDur := budget / maxRungs
	rung := func(k int) bool {
		rate := ladderRate(k)
		n := int(rungDur.Seconds() * rate)
		ops := sr.in.schedule(sr.r, n, 0, 0, &sr.nextUpdate)
		ph := sr.run(d, ops, uniformDues(n, rate, 0))
		lat := ph.latencies(opQuery)
		p99, grew := lat.quantile(0.99), backlogGrew(ph.timings)
		ok := ph.failed() == 0 && !grew && p99 <= us(querySLO)
		rep.note("ladder rung %.0f/s: %d ops, /query p99 %.0fus (%d beyond), backlog grew %v, pass %v",
			rate, n, p99, beyond(0.99, len(lat)), grew, ok)
		time.Sleep(20 * time.Millisecond) // let the server go idle between rungs
		return ok
	}
	pass, fail, used := -1, maxK+1, 0
	for k := 0; k <= maxK && used < maxRungs; k += coarse {
		used++
		if !rung(k) {
			fail = k
			break
		}
		pass = k
	}
	for fail-pass > 1 && used < maxRungs {
		used++
		if mid := (pass + fail) / 2; rung(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	if pass < 0 {
		return 0
	}
	return ladderRate(pass)
}

// probeSamples gathers the CPU probe's per-chunk figures over the segments
// of a run.
type probeSamples struct {
	reads, heavies, rates sample
}

// probe measures closed-loop the process CPU time each op costs: chunks of
// /query on both senders for a quarter of the budget, then chunks of /batch
// on one sender for the rest. On a workload with writes each /batch follows
// a one-fact /update, so it finds its frozen plan stale as it does under
// write traffic, and the pair is charged to the /batch. It appends per chunk
// the CPU µs per /query and per /batch, and the /query completions per
// second. It runs on one P. Process CPU time counts the generator's client
// side too, and leaves out the steal of a shared VM (README.md).
func (sr *serveRun) probe(d *pdbd, budget time.Duration, ps *probeSamples) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see oneP
	const queryChunk, batchChunk = 1000, 10
	for spent := time.Duration(0); spent < budget/4; {
		ops := sr.in.schedule(sr.r, queryChunk, 0, 0, &sr.nextUpdate)
		c0, t0 := cpuTime(), time.Now()
		sr.run(d, ops, make([]time.Duration, queryChunk)) // all due at once
		cpu, wall := cpuTime()-c0, time.Since(t0)
		ps.reads = append(ps.reads, us(cpu)/queryChunk)
		ps.rates = append(ps.rates, queryChunk/wall.Seconds())
		spent += wall
	}
	n, batchShare, updateShare := batchChunk, 1.0, 0.0
	if sr.wl.updateShare > 0 {
		n, batchShare, updateShare = 2*batchChunk, 0.5, 0.5 // /batch, /update, /batch, ...
	}
	for spent := time.Duration(0); spent < budget*3/4; {
		ops := sr.in.schedule(sr.r, n, batchShare, updateShare, &sr.nextUpdate)
		c0, t0 := cpuTime(), time.Now()
		sr.runOn(d, ops, make([]time.Duration, n), 1)
		ps.heavies = append(ps.heavies, us(cpuTime()-c0)/batchChunk)
		spent += time.Since(t0)
	}
}

// oneP runs f with GOMAXPROCS 1. Process CPU time then counts the work
// done, and not the runtime spinning on the idle P for the next runnable
// goroutine, nor idle-priority GC marking there: how much of those a run
// burns depends on how much of the second core the host leaves free.
func oneP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// heapLiveMB returns the live heap after forced collections: two, because
// objects parked in a sync.Pool survive the first one.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
