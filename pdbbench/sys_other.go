//go:build !linux

package main

import "time"

// osSleep falls back to the runtime timer where nanosleep is unavailable;
// the pacer still subtracts the overshoot it observes.
func osSleep(d time.Duration) { time.Sleep(d) }

var processStart = time.Now()

// cpuTime falls back to wall time since start where getrusage is not used.
func cpuTime() time.Duration { return time.Since(processStart) }
