package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// Request names one independent evaluation for Serve: a compiled plan and
// the event probability map to evaluate it under. Requests may mix plans
// freely — many requests sharing one plan (a parameter sweep), or each
// carrying its own (mixed queries). Exactly one of Plan and Sharded must be
// set; component-sharded plans additionally fan their own shards over the
// pool.
type Request struct {
	Plan    *Plan
	Sharded *ShardedPlan
	P       logic.Prob
}

// Response is the outcome of one Request.
type Response struct {
	Probability float64
	Err         error
}

// Serve evaluates the requests concurrently over a worker pool and returns
// one Response per request, in request order. workers <= 0 uses
// runtime.GOMAXPROCS(0).
//
// Plans are immutable, so a single compiled plan can be shared by any number
// of concurrent requests; the per-request work is only the numeric dynamic
// program. A malformed request (no plan, or both kinds) gets the error in its
// Response rather than failing the whole batch.
func Serve(reqs []Request, workers int) []Response {
	out := make([]Response, len(reqs))
	runPool(len(reqs), workers, func(i int) {
		req := reqs[i]
		switch {
		case req.Plan != nil && req.Sharded != nil:
			out[i].Err = fmt.Errorf("core: request %d sets both Plan and Sharded", i)
		case req.Plan != nil:
			out[i].Probability, out[i].Err = req.Plan.Probability(req.P)
		case req.Sharded != nil:
			out[i].Probability, out[i].Err = req.Sharded.Probability(req.P)
		default:
			out[i].Err = fmt.Errorf("core: request %d has a nil plan", i)
		}
	})
	return out
}

// runPool fans fn(0..n-1) over a pool of worker goroutines pulling indices
// from a shared counter — the serving machinery behind Serve, reused by
// ShardedPlan to evaluate shards concurrently. workers <= 0 uses
// runtime.GOMAXPROCS(0); a single worker (or n <= 1) runs inline.
func runPool(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
