package server

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/incr"
	"repro/internal/obs"
)

// planCache is the LRU view cache of the service, keyed by the normalized
// query fingerprint (core.FingerprintCQ): textually different but identical
// CQs share one registered view, so the Prepare cost of a query shape is
// paid once no matter how many clients ask it.
//
// Lookups are single-flight: concurrent misses on one fingerprint block on
// a single RegisterView call instead of compiling the same plan N times.
// Eviction unregisters the view from the store (via onEvict) so the store
// stops maintaining cold query shapes under updates.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	order   *list.List // front = most recently used; values are *cacheEntry
	onEvict func(*incr.View)

	hits, misses, evictions uint64

	// optional obs handles (nil until instrument); mHit counts every reuse,
	// mCoalesce additionally counts the reuses that joined a still-in-flight
	// registration — the single-flight savings made visible.
	mHit, mMiss, mEvict, mCoalesce *obs.Counter
}

// instrument attaches the metric handles the cache records its events on.
// Call before serving traffic.
func (pc *planCache) instrument(hit, miss, evict, coalesce *obs.Counter) {
	pc.mu.Lock()
	pc.mHit, pc.mMiss, pc.mEvict, pc.mCoalesce = hit, miss, evict, coalesce
	pc.mu.Unlock()
}

type cacheEntry struct {
	fp    string
	elem  *list.Element
	ready chan struct{} // closed once view/err are set
	view  *incr.View
	err   error
}

func newPlanCache(max int, onEvict func(*incr.View)) *planCache {
	if max < 1 {
		max = 1
	}
	return &planCache{
		max:     max,
		entries: map[string]*cacheEntry{},
		order:   list.New(),
		onEvict: onEvict,
	}
}

// get returns the cached view for fp, building it with build on a miss.
// hit reports whether a cached (or in-flight) entry was reused. A build
// failure or panic is not cached: the entry is removed so the next request
// retries.
func (pc *planCache) get(fp string, build func() (*incr.View, error)) (v *incr.View, hit bool, err error) {
	pc.mu.Lock()
	if e, ok := pc.entries[fp]; ok {
		pc.order.MoveToFront(e.elem)
		pc.hits++
		if pc.mHit != nil {
			pc.mHit.Inc()
			select {
			case <-e.ready:
			default:
				// the entry is still building: this request coalesced onto an
				// in-flight registration rather than finding a finished one.
				pc.mCoalesce.Inc()
			}
		}
		pc.mu.Unlock()
		<-e.ready
		return e.view, true, e.err
	}
	e := &cacheEntry{fp: fp, ready: make(chan struct{})}
	e.elem = pc.order.PushFront(e)
	pc.entries[fp] = e
	pc.misses++
	if pc.mMiss != nil {
		pc.mMiss.Inc()
	}
	evicted := pc.evictLocked()
	pc.mu.Unlock()

	for _, old := range evicted {
		pc.onEvict(old)
	}

	// The entry is settled even when build panics: waiters then see an
	// error instead of blocking on ready forever, the failed entry is
	// dropped so the next request retries, and the panic goes on to the
	// caller.
	built := false
	defer func() {
		if !built {
			e.view, e.err = nil, errBuildPanicked
		}
		close(e.ready)
		if e.err != nil {
			pc.mu.Lock()
			// Only remove if the entry is still ours (it is: failed entries
			// are only removed here, and fp collisions wait on ready).
			if pc.entries[fp] == e {
				delete(pc.entries, fp)
				pc.order.Remove(e.elem)
			}
			pc.mu.Unlock()
		}
	}()
	e.view, e.err = build()
	built = true
	return e.view, false, e.err
}

// errBuildPanicked is what requests coalesced onto a registration receive
// when that registration panicked.
var errBuildPanicked = errors.New("server: preparing the query's view panicked")

// evictLocked trims the cache to max entries, skipping entries whose build
// is still in flight (their view is not yet known). Returns the views to
// unregister, to be released outside the lock.
func (pc *planCache) evictLocked() []*incr.View {
	var out []*incr.View
	for elem := pc.order.Back(); elem != nil && pc.order.Len() > pc.max; {
		e := elem.Value.(*cacheEntry)
		prev := elem.Prev()
		select {
		case <-e.ready:
			if e.view != nil {
				out = append(out, e.view)
			}
			delete(pc.entries, e.fp)
			pc.order.Remove(elem)
			pc.evictions++
			if pc.mEvict != nil {
				pc.mEvict.Inc()
			}
		default:
			// still building; never evict an in-flight entry
		}
		elem = prev
	}
	return out
}

// stats returns the cumulative hit/miss/eviction counters and current size.
func (pc *planCache) stats() (hits, misses, evictions uint64, size int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.evictions, pc.order.Len()
}
