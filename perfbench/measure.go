package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Job classes. A hot job repeats a problem the system already answered in
// this pass and can serve from the cache it keeps for repeats; a cold job
// is a problem the pass has not seen.
const (
	cold = iota
	hot
)

var className = [2]string{"cold", "hot"}

// cpuNow returns the process CPU time (all threads, user + system).
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	// CLOCK_PROCESS_CPUTIME_ID cannot fail on Linux, the only platform
	// this benchmark runs on.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// recorder collects one pass's per-job times. Serial workloads record
// each job's wall and process CPU time; the concurrent serve workload
// records client wall time per request and process CPU per window of
// completed requests (see cpuWindow), since concurrent requests share the
// process's CPU. Every sample carries its job's key, its place in the
// pass's fixed job list, so a run can compare the same job across passes.
type recorder struct {
	mu       sync.Mutex
	samples  []sample
	win      []float64 // ms per request, by window (serve workload)
	cpuTotal time.Duration
	jobs     int
	busy     time.Duration // wall time of the timed phase

	phaseStart time.Time
	windowN    int
	windowLast time.Duration
}

type sample struct {
	key, class int
	wall, cpu  float64 // ms; cpu only on serial workloads
}

// job records a serial job; serial jobs are keyed in the order they run.
func (r *recorder) job(class int, wall, cpu time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{key: r.jobs, class: class, wall: ms(wall), cpu: ms(cpu)})
	r.cpuTotal += cpu
	r.busy += wall
	r.jobs++
	r.mu.Unlock()
}

// cpuWindow is the per-request CPU sampler of a concurrent phase: every
// window of completed requests adds the process CPU spent on it, divided
// by the window size, as one sample. The two clients drift apart by a
// few requests within a pass, so a small window holds a different mix of
// cheap and costly requests in every pass, and its best over the passes
// reads the cheapest mix; at 128 requests the mix barely moves.
const cpuWindow = 128

func (r *recorder) startPhase() {
	r.mu.Lock()
	r.phaseStart = time.Now()
	r.windowN = 0
	r.windowLast = cpuNow()
	r.mu.Unlock()
}

// request records a request of a concurrent phase under its key.
func (r *recorder) request(key, class int, wall time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{key: key, class: class, wall: ms(wall)})
	r.jobs++
	r.windowN++
	if r.windowN == cpuWindow {
		now := cpuNow()
		d := now - r.windowLast
		r.win = append(r.win, ms(d)/cpuWindow)
		r.cpuTotal += d
		r.windowLast, r.windowN = now, 0
	}
	r.mu.Unlock()
}

// endPhase books the phase's wall time and the CPU of a partial last
// window.
func (r *recorder) endPhase() {
	r.mu.Lock()
	r.busy += time.Since(r.phaseStart)
	r.cpuTotal += cpuNow() - r.windowLast
	r.windowN = 0
	r.mu.Unlock()
}

// walls returns every job's wall time.
func (r *recorder) walls() []float64 {
	w := make([]float64, len(r.samples))
	for i, s := range r.samples {
		w[i] = s.wall
	}
	return w
}

// timings returns the end-to-end timing metrics of a run's passes. Every
// per-job time is the job's best over the passes, and the percentiles
// are taken over the job list. The serve workload's CPU windows are
// keyed by their place in the pass in the same way; a window is large
// enough that it holds nearly the same requests in every pass. On serial
// workloads cpu_ms_per_job is the best pass's.
//
// Every pass runs the same jobs, so a job's passes differ only in how
// much the host disturbed them. On a shared host that disturbance comes
// and goes within seconds: a busy neighbour on the sibling hyperthread
// slows the simulator by up to 1.7x with no steal to show for it. A
// job's best pass is the program's own cost; a median over passes reads
// the share of the run the neighbour was busy. Garbage collection, which
// the program causes, still counts: cpu_ms_per_job charges a whole pass's
// collections to its jobs.
func timings(passes []*recorder) map[string]float64 {
	if len(passes) == 0 {
		return nil
	}
	byKey := map[int]sample{}
	var perJob, win []float64
	for _, r := range passes {
		for _, s := range r.samples {
			b, ok := byKey[s.key]
			if !ok {
				byKey[s.key] = s
				continue
			}
			b.wall, b.cpu = min(b.wall, s.wall), min(b.cpu, s.cpu)
			byKey[s.key] = b
		}
		perJob = append(perJob, ms(r.cpuTotal)/float64(r.jobs))
		for i, v := range r.win {
			if i == len(win) {
				win = append(win, v)
			}
			win[i] = min(win[i], v)
		}
	}
	serial := len(win) == 0
	var all, cpu []float64
	var class [2][]float64 // the class percentiles' samples, see below
	for _, s := range byKey {
		all = append(all, s.wall)
		cpu = append(cpu, s.cpu)
		// Class percentiles are CPU time on serial workloads, where
		// wall-clock tails track hypervisor steal rather than the
		// program, and client wall time on the serve workload.
		if serial {
			class[s.class] = append(class[s.class], s.cpu)
		} else {
			class[s.class] = append(class[s.class], s.wall)
		}
	}
	cpuPerJob := best(perJob)
	if !serial {
		cpu, cpuPerJob = win, mean(win)
	}
	t := map[string]float64{
		"job_p50_ms":     quantile(all, 0.5),
		"job_cpu_p90_ms": quantile(cpu, 0.9),
		"cpu_ms_per_job": cpuPerJob,
	}
	for c, cn := range className {
		t[cn+"_p50_ms"] = quantile(class[c], 0.5)
		t[cn+"_p90_ms"] = quantile(class[c], 0.9)
	}
	return t
}

// best returns the lowest of a per-pass value, for the reason timings
// gives.
func best(perPass []float64) float64 {
	if len(perPass) == 0 {
		return 0
	}
	return slices.Min(perPass)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostTicks reads the aggregate steal and total ticks from /proc/stat.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memSnap is the slice of runtime.MemStats the per-layer report uses.
type memSnap struct{ alloc, gc uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, gc: uint64(m.NumGC)}
}
