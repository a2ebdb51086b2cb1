//go:build linux

package main

import (
	"syscall"
	"time"
)

// osSleep blocks the calling thread in nanosleep(2). On small VMs the
// runtime timer behind time.Sleep overshoots by about a millisecond, more
// than a cached /query takes; nanosleep overshoots by tens of microseconds,
// and the pacer learns and subtracts that.
func osSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the pacer re-checks the clock
}

// cpuTime is the CPU time the process has used, all threads. Kernels with
// paravirtual steal accounting leave out the time the hypervisor ran
// another guest, so on a shared VM it measures the work done, where wall
// time also measures the neighbours.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
