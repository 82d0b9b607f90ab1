//go:build unix

package cli

import (
	"syscall"
	"time"
)

// processCPUTime returns the cumulative user+system CPU time of the
// process, or 0 when rusage is unavailable.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
