package exact

import (
	"fmt"
	"testing"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// fuzzChain decodes a 2–3 task chain with quanta in 1..6 and capacities in
// 1..10 from three bytes per buffer: a bit mask of the production set, one
// of the consumption set (an empty mask reads as {1}) and the capacity.
func fuzzChain(t *testing.T, data []byte) *taskgraph.Graph {
	if len(data) < 4 {
		return nil
	}
	nb := 1 + int(data[0]%2)
	data = data[1:]
	if len(data) < 3*nb {
		return nil
	}
	set := func(mask byte) taskgraph.QuantaSet {
		var v []int64
		for q := int64(1); q <= 6; q++ {
			if mask&(1<<(q-1)) != 0 {
				v = append(v, q)
			}
		}
		if len(v) == 0 {
			v = []int64{1}
		}
		return taskgraph.MustQuanta(v...)
	}
	var stages []taskgraph.Stage
	var links []taskgraph.Link
	for i := 0; i <= nb; i++ {
		stages = append(stages, taskgraph.Stage{Name: fmt.Sprintf("t%d", i), WCRT: ratio.One})
	}
	for i := 0; i < nb; i++ {
		links = append(links, taskgraph.Link{
			Prod:     set(data[3*i]),
			Cons:     set(data[3*i+1]),
			Capacity: 1 + int64(data[3*i+2]%10),
		})
	}
	g, err := taskgraph.BuildChain(stages, links)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runChain simulates g self-timed under the given per-buffer workloads
// until the sink has fired firings times or the chain deadlocks.
func runChain(t *testing.T, g *taskgraph.Graph, w sim.Workloads, firings int64) sim.Outcome {
	cfg, _, err := sim.TaskGraphConfig(g, w)
	if err != nil {
		t.Fatal(err)
	}
	tasks, _, err := g.Chain()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = sim.Stop{Actor: tasks[len(tasks)-1].Name, Firings: firings}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcome
}

// FuzzCertifyAgreesWithSimulator holds the exhaustive certifier to the
// timed simulator and to the closed form. A deadlock verdict's witness,
// each sequence extended by its set's maximum, must deadlock the
// simulator; a safe verdict must complete 200 sink firings under the
// constant-minimum, constant-maximum and alternating adversaries; and a
// constant pair must be safe exactly from p + c − gcd(p, c) on.
func FuzzCertifyAgreesWithSimulator(f *testing.F) {
	f.Add([]byte{0, 0b100, 0b110, 3})                  // Figure 1 at capacity 4: deadlocks
	f.Add([]byte{0, 0b100, 0b110, 4})                  // and at 5: safe
	f.Add([]byte{1, 0b100, 0b110, 3, 0b110, 0b010, 9}) // a 3-task chain below the pair minimum
	f.Add([]byte{1, 0b011, 0b001, 5, 0b101, 0b100, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzChain(t, data)
		if g == nil {
			return
		}
		ok, w, err := ChainDeadlockFree(g, 200_000)
		if err != nil {
			return // beyond the state guard
		}
		tasks, buffers, err := g.Chain()
		if err != nil {
			t.Fatal(err)
		}
		if len(buffers) == 1 && buffers[0].Prod.IsConstant() && buffers[0].Cons.IsConstant() {
			p, c := buffers[0].Prod.Max(), buffers[0].Cons.Max()
			if want := buffers[0].Capacity >= p+c-gcd(p, c); ok != want {
				t.Fatalf("constant pair (%d, %d) at capacity %d: certified %v, closed form says %v",
					p, c, buffers[0].Capacity, ok, want)
			}
		}
		if !ok {
			sticky := func(seq []int64, last int64) quanta.Sequence {
				return quanta.Sticky(append(append([]int64{}, seq...), last)...)
			}
			replay := sim.Workloads{}
			for i, b := range buffers {
				replay[b.DefaultName()] = sim.Workload{
					Prod: sticky(w.Out[tasks[i].Name], b.Prod.Max()),
					Cons: sticky(w.In[tasks[i+1].Name], b.Cons.Max()),
				}
			}
			sink := tasks[len(tasks)-1].Name
			if got := runChain(t, g, replay, int64(len(w.In[sink]))+20); got != sim.Deadlocked {
				t.Fatalf("witness %+v did not deadlock the simulator: %v", w, got)
			}
			return
		}
		for _, adversary := range []func(q taskgraph.QuantaSet) quanta.Sequence{
			func(q taskgraph.QuantaSet) quanta.Sequence { return quanta.Constant(q.Min()) },
			func(q taskgraph.QuantaSet) quanta.Sequence { return quanta.Constant(q.Max()) },
			func(q taskgraph.QuantaSet) quanta.Sequence { return quanta.Cycle(q.Min(), q.Max()) },
		} {
			load := sim.Workloads{}
			for _, b := range buffers {
				load[b.DefaultName()] = sim.Workload{Prod: adversary(b.Prod), Cons: adversary(b.Cons)}
			}
			if got := runChain(t, g, load, 200); got != sim.Completed {
				t.Fatalf("certified chain did not complete 200 firings under an adversary: %v", got)
			}
		}
	})
}

// gcd is the greatest common divisor of two positive quanta.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
