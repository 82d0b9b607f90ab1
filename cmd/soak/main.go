// Command soak load-tests a running vrdfserve: a fixed worker count fires
// a mixed request stream — exact repeats (response-cache hits), textual
// variants of the same problem (coalescing and warm-frontier replays) and
// distinct seeds (cold computations) — for a fixed duration, then reports
// throughput, latency percentiles and the server-side effort deltas read
// from /statsz.
//
// The exit status is the gate: non-zero when any request failed, the
// measured request rate fell below -min-rps, or /statsz counted fewer
// requests than soak received responses (the server lost count), so CI can
// run a short soak as a smoke test. A 200 whose body differs from the first
// body soak saw for the same problem counts as a failed request: every
// variant of one problem must get one answer, whether it was a cache hit, a
// computation or a coalesced wait, so a coalescing key too coarse to tell
// two problems apart fails the soak.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vrdfcap/internal/serve"
)

// pairDoc is the default workload: the paper's Figure 1 producer-consumer
// pair, small enough that a cold minimize is a handful of simulations.
const pairDoc = `task a wcrt 1
task b wcrt 1
buffer a -> b prod 3 cons {2,3}
constraint b period 3
`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of the vrdfserve under test (e.g. http://127.0.0.1:8080)")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive load")
	concurrency := fs.Int("concurrency", 8, "concurrent request workers")
	firings := fs.Int64("firings", 200, "simulation horizon per minimize request")
	problems := fs.Int("problems", 4, "distinct problems (seeds) in the mix")
	variants := fs.Int("variants", 8, "textual variants per problem (same canonical graph)")
	minRPS := fs.Float64("min-rps", 0, "fail when the measured request rate falls below this floor")
	graphPath := fs.String("graph", "", "graph document to load-test with (default: built-in Figure 1 pair)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *concurrency <= 0 || *problems <= 0 || *variants <= 0 {
		return fmt.Errorf("concurrency, problems and variants must be positive")
	}
	doc := pairDoc
	if *graphPath != "" {
		data, err := os.ReadFile(*graphPath)
		if err != nil {
			return err
		}
		doc = string(data)
	}
	base := strings.TrimRight(*addr, "/")

	// Pre-render every body and URL so the measurement loop does no
	// formatting: requests[i] cycles problems fastest, variants slower, so
	// the stream interleaves distinct problems while exact repeats recur
	// once the cycle wraps.
	type request struct {
		url, body string
		problem   int
	}
	reqs := make([]request, 0, *problems**variants)
	for v := 0; v < *variants; v++ {
		for p := 0; p < *problems; p++ {
			reqs = append(reqs, request{
				url:     fmt.Sprintf("%s/v1/minimize?firings=%d&seed=%d", base, *firings, p+1),
				body:    fmt.Sprintf("# soak variant %d\n%s", v, doc),
				problem: p,
			})
		}
	}
	// answers holds the first 200 body seen per problem; every later 200
	// for that problem must match it byte for byte.
	answers := make([][]byte, *problems)
	var answersMu sync.Mutex
	var mismatches atomic.Int64
	consistent := func(problem int, body []byte) bool {
		answersMu.Lock()
		defer answersMu.Unlock()
		if answers[problem] == nil {
			answers[problem] = body
			return true
		}
		return bytes.Equal(body, answers[problem])
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency,
		MaxIdleConnsPerHost: *concurrency,
	}}

	before, statsOK := readStats(client, base)

	deadline := time.Now().Add(*duration)
	var next atomic.Int64
	var failures, responses atomic.Int64
	lats := make([][]int64, *concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]int64, 0, 4096)
			for time.Now().Before(deadline) {
				r := reqs[int(next.Add(1))%len(reqs)]
				t0 := time.Now()
				resp, err := client.Post(r.url, "application/json", strings.NewReader(r.body))
				if err != nil {
					failures.Add(1)
					continue
				}
				responses.Add(1)
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				if !consistent(r.problem, body) {
					mismatches.Add(1)
					failures.Add(1)
					continue
				}
				mine = append(mine, int64(time.Since(t0)))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := int64(len(all)) + failures.Load()
	rps := float64(total) / elapsed.Seconds()

	fmt.Fprintf(out, "soak: %d requests in %.1fs (%.1f req/s), %d errors\n",
		total, elapsed.Seconds(), rps, failures.Load())
	if len(all) > 0 {
		fmt.Fprintf(out, "latency: p50=%s p99=%s max=%s\n",
			time.Duration(percentile(all, 0.50)),
			time.Duration(percentile(all, 0.99)),
			time.Duration(all[len(all)-1]))
	}
	after, afterOK := readStats(client, base)
	statsOK = statsOK && afterOK
	counted := after.Requests - before.Requests
	if statsOK {
		events := after.SimEvents - before.SimEvents
		fmt.Fprintf(out, "server: requests+%d cacheHits+%d coalesced+%d computes+%d rejected+%d errors+%d simEvents+%d (%.0f events/s) logDropped=%d\n",
			counted,
			after.CacheHits-before.CacheHits,
			after.Coalesced-before.Coalesced,
			after.Computes-before.Computes,
			after.Rejected-before.Rejected,
			after.Errors-before.Errors,
			events, float64(events)/elapsed.Seconds(),
			after.LogDropped)
	}

	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d of %d requests failed, %d of them with a body that differs from the problem's first answer", n, total, mismatches.Load())
	}
	if *minRPS > 0 && rps < *minRPS {
		return fmt.Errorf("measured %.1f req/s, below the -min-rps floor of %.1f", rps, *minRPS)
	}
	// A server counts each response before writing it, so its requests
	// delta is at least the responses soak received.
	if n := responses.Load(); statsOK && counted < n {
		return fmt.Errorf("server counted %d requests, soak received %d responses", counted, n)
	}
	return nil
}

// percentile returns the q-quantile of a sorted latency slice.
func percentile(sorted []int64, q float64) int64 {
	i := int(float64(len(sorted)-1) * q)
	return sorted[i]
}

// readStats snapshots /statsz; a false ok means the endpoint is absent or
// unreadable (soak still measures client-side numbers).
func readStats(client *http.Client, base string) (serve.Stats, bool) {
	var st serve.Stats
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, false
	}
	return st, true
}
