package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pacer waits for scheduled instants more precisely than the runtime timer:
// it sleeps in the OS until the instant less the overshoot it has observed
// so far, and yields for whatever is left.
type pacer struct{ overshoot time.Duration }

func (p *pacer) waitUntil(t time.Time) {
	const maxOvershoot = 200 * time.Microsecond
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d <= p.overshoot {
			runtime.Gosched()
			continue
		}
		sleep := d - p.overshoot
		t0 := time.Now()
		osSleep(sleep)
		over := time.Since(t0) - sleep
		if over < 0 {
			over = 0
		}
		p.overshoot += (over - p.overshoot) / 8 // EWMA over recent sleeps
		if p.overshoot > maxOvershoot {
			p.overshoot = maxOvershoot
		}
	}
}

// timing is one op's schedule and outcome, as offsets from the phase start.
type timing struct {
	due, start, done time.Duration
}

// latency is measured from the intended send time, so a stall is charged to
// every op it delays (no coordinated omission).
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how far behind schedule the op was handed to the network.
func (t timing) late() time.Duration { return t.start - t.due }

// openLoop sends op i at offset dues[i] from base, regardless of how
// earlier ops fared, over a fixed set of sender goroutines; do(i) performs op
// i synchronously and returns when it completed. A free sender claims the next op in schedule order, sleeps
// until it is due and sends it; when every sender is busy, due ops wait and
// the wait shows up as lateness.
func openLoop(base time.Time, dues []time.Duration, senders int, do func(i int) time.Time) []timing {
	ts := make([]timing, len(dues))
	for i, d := range dues {
		ts[i].due = d
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p pacer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				p.waitUntil(base.Add(dues[i]))
				ts[i].start = time.Since(base)
				ts[i].done = do(i).Sub(base)
			}
		}()
	}
	wg.Wait()
	return ts
}

// backlogGrew reports whether sends fell further and further behind during
// the phase: the median lateness of its last quarter exceeds both 5ms and
// four times that of its first quarter. A stall shorter than half a quarter
// moves neither median. A rate the server sustains keeps a
// flat lateness profile; an excessive one grows it linearly.
func backlogGrew(ts []timing) bool {
	n := len(ts)
	if n < 8 {
		return false
	}
	lateQ := func(part []timing) float64 {
		s := make(sample, len(part))
		for i, t := range part {
			s[i] = us(t.late())
		}
		return s.quantile(0.5)
	}
	first, last := lateQ(ts[:n/4]), lateQ(ts[n-n/4:])
	return last > 5000 && last > 4*first
}

// uniformDues spaces n sends evenly at rate per second, starting at offset.
func uniformDues(n int, rate float64, offset time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range out {
		out[i] = offset + time.Duration(float64(i)*step)
	}
	return out
}
