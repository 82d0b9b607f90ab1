package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share its id;
// parent is the index of the enclosing span (-1 for a job's root span).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	job        int
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced passes pay only a nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, job: job})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerStats aggregates the spans by name: calls, total time and self
// time (the span minus the time its children cover).
type layerStats struct {
	calls       int
	total, self time.Duration
}

// summary folds the recorded spans into per-layer totals and the share of
// job wall time (root spans named "job") not covered by any child span.
func (t *tracer) summary() (layers map[string]*layerStats, unattributed float64) {
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	layers = make(map[string]*layerStats)
	var jobTime, uncovered time.Duration
	for i, s := range t.spans {
		d := s.end - s.start
		l := layers[s.name]
		if l == nil {
			l = &layerStats{}
			layers[s.name] = l
		}
		l.calls++
		l.total += d
		l.self += d - childTime[i]
		if s.parent < 0 && s.name == "job" {
			jobTime += d
			uncovered += d - childTime[i]
		}
	}
	if jobTime > 0 {
		unattributed = float64(uncovered) / float64(jobTime)
	}
	return layers, unattributed
}

// write stores the spans as CSV (id,parent,job,name,start_ns,end_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,job,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.job, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
