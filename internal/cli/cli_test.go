package cli

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vrdfcap/internal/probecache"
)

// TestRunStatsFooter pins the footer: the verification and search effort
// summed under the /statsz keys, and the verdict-store line for each kind
// of store.
func TestRunStatsFooter(t *testing.T) {
	r := StartRun(4)
	r.Verify.SimEvents.Add(100)
	r.Verify.ColdResets.Add(2)
	r.Search.SimEvents.Add(20)
	r.Search.ResumedEvents.Add(7)
	r.Search.WarmResets.Add(1)

	var out bytes.Buffer
	r.WriteStats(&out, &Flags{Disable: true}, nil, 0)
	if want := "\nrun stats: simEvents=120 resumedEvents=7 warmResets=1 coldResets=2 workers=4 wall="; !strings.HasPrefix(out.String(), want) {
		t.Errorf("footer %q, want prefix %q", out.String(), want)
	}
	if !strings.HasSuffix(out.String(), "\ncache: disabled\n") {
		t.Errorf("footer %q does not report the disabled cache", out.String())
	}

	dir := t.TempDir()
	out.Reset()
	r.WriteStats(&out, &Flags{Dir: dir}, probecache.NewStore(dir), 3)
	if want := "\ncache: verdictHits=0 verdictMisses=0 across 0 problem(s); store: 0 loaded, 0 skipped, 3 written (dir:" + dir + ")\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("footer %q, want suffix %q", out.String(), want)
	}
}

// TestRunMeasuresWall checks that the footer reports at least the wall time
// that passed since StartRun, and a CPU time that is never negative.
func TestRunMeasuresWall(t *testing.T) {
	r := StartRun(1)
	time.Sleep(2 * time.Millisecond)

	var out bytes.Buffer
	r.WriteStats(&out, &Flags{Disable: true}, nil, 0)
	reading := func(key string) time.Duration {
		_, after, ok := strings.Cut(out.String(), " "+key+"=")
		if !ok {
			t.Fatalf("no %s time:\n%s", key, out.String())
		}
		d, err := time.ParseDuration(strings.Fields(after)[0])
		if err != nil {
			t.Fatalf("%s time: %v", key, err)
		}
		return d
	}
	if wall := reading("wall"); wall < 2*time.Millisecond {
		t.Errorf("wall = %v, want >= 2ms", wall)
	}
	if cpu := reading("cpu"); cpu < 0 {
		t.Errorf("cpu = %v, want >= 0", cpu)
	}
}
