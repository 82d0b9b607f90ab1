//go:build !unix

package cli

import "time"

// processCPUTime is unavailable without rusage; the footer reports cpu=0s.
func processCPUTime() time.Duration { return 0 }
